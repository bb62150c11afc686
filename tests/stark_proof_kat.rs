//! Known-answer test: STARK proof bytes, Goldilocks Poseidon outputs and
//! leaf-row digests.
//!
//! The fixture (`tests/fixtures/stark_proof_kat.txt`, one `name value…`
//! line per case) was written by the backend as it stood when every Merkle
//! node and transcript step called the generic
//! `circuit::poseidon::poseidon_permute::<Goldilocks>`; every later hash
//! kernel and prover must reproduce it — same permutation, same tree
//! shape, same transcript, at any thread count. Proofs are pinned by
//! length and FNV-1a-64 (an 84 KB proof per line would drown the file);
//! the permutation and row digests are pinned in full so a wrong derived
//! constant fails a millisecond test rather than a one-second proof.

use zkperf::circuit::library::{
    exponentiate, merkle_membership_poseidon, merkle_path_inputs_poseidon,
};
use zkperf::circuit::poseidon::poseidon_permute;
use zkperf::circuit::Circuit;
use zkperf::ff::goldilocks::MODULUS;
use zkperf::ff::{Field, Goldilocks};
use zkperf::pool;
use zkperf::stark::merkle::hash_row;
use zkperf::stark::StarkParams;

type F = Goldilocks;

const FIXTURE: &str = include_str!("fixtures/stark_proof_kat.txt");

/// Compares `got` with the fixture line `name`; on a mismatch the message
/// is the line this build produced.
fn check(name: &str, got: &str) {
    let expected = FIXTURE
        .lines()
        .filter_map(|l| l.split_once(' '))
        .find(|(n, _)| *n == name)
        .map(|(_, v)| v.trim());
    assert!(
        expected == Some(got),
        "`{name}` differs from the fixture; this build produced:\n{name} {got}"
    );
}

fn hex_words(words: &[F]) -> String {
    let words: Vec<String> = words
        .iter()
        .map(|w| format!("{:016x}", w.as_canonical_u64()))
        .collect();
    words.join(" ")
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn permutation_outputs_match_the_recorded_words() {
    let top = F::from_u64(MODULUS - 1);
    let f = F::from_u64;
    for (name, state) in [
        ("permute_zero", [F::zero(); 3]),
        ("permute_pm1", [top; 3]),
        ("permute_123", [f(1), f(2), f(3)]),
    ] {
        // One function, two implementations: the generic oracle and the
        // Goldilocks kernel answer to the same line.
        check(name, &hex_words(&poseidon_permute(state)));
        //KERNEL check(name, &hex_words(&kernel::permute(state)));
    }
}

#[test]
fn row_digests_match_the_recorded_words() {
    for width in 0..=5u64 {
        let row: Vec<F> = (1..=width)
            .map(|i| F::from_u64(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i)))
            .collect();
        check(&format!("hash_row_w{width}"), &hex_words(&[hash_row(&row)]));
    }
}

/// Proves at 1, 2 and 4 threads and checks each proof against the one
/// fixture line.
fn check_proof(name: &str, circuit: &Circuit<F>, public: &[F], private: &[F], params: StarkParams) {
    let witness = circuit.generate_witness(public, private).unwrap();
    for threads in [1, 2, 4] {
        pool::set_threads(threads);
        let proof = zkperf::stark::prove(circuit.r1cs(), witness.full(), &params).unwrap();
        zkperf::stark::verify(circuit.r1cs(), witness.public(), &proof, &params).unwrap();
        let bytes = proof.encode();
        check(name, &format!("{} {:016x}", bytes.len(), fnv1a64(&bytes)));
    }
    pool::set_threads(1);
}

#[test]
fn proofs_match_the_recorded_digests() {
    let three = [F::from_u64(3)];
    let default = StarkParams::default();
    check_proof(
        "exponentiate_2e6_b8_q30",
        &exponentiate(1 << 6),
        &three,
        &[],
        default,
    );
    check_proof(
        "exponentiate_2e10_b8_q30",
        &exponentiate(1 << 10),
        &three,
        &[],
        default,
    );
    check_proof(
        "exponentiate_2e14_b8_q30",
        &exponentiate(1 << 14),
        &three,
        &[],
        default,
    );
    let path: Vec<(F, bool)> = (0..4).map(|i| (F::from_u64(100 + i), i % 2 == 0)).collect();
    let (inputs, _root) = merkle_path_inputs_poseidon(F::from_u64(7), &path);
    check_proof(
        "merkle_poseidon_4_b8_q30",
        &merkle_membership_poseidon(4),
        &[],
        &inputs,
        default,
    );
    let knobbed = StarkParams {
        blowup: 4,
        num_queries: 12,
    };
    check_proof(
        "exponentiate_2e10_b4_q12",
        &exponentiate(1 << 10),
        &three,
        &[],
        knobbed,
    );
}
