//! Known-answer test: Groth16 `.zkey`, vkey and proof bytes under
//! `test_rng`-seeded setups.
//!
//! The fixture (`tests/fixtures/groth16_kat.txt`, one `name length fnv`
//! line per artifact) was written while `setup` and `prove` still had a
//! resident body next to the chunked one. Every later pipeline must
//! reproduce it at any thread count, with or without a memory budget, and
//! off a streamed `.zkey` file at any chunk size — so the
//! chunking-invariance suites (`stream_*` oracles, the unit tests in
//! `groth16::stream` and `io::zkey`) compare against a value that no
//! refactor of both sides at once can move.
//!
//! The `.zkey` lines were recorded again when the resident proving-key
//! framing was deleted and a resident key became the one-chunk streamed
//! container; the streamed file at `usize::MAX` points per chunk must
//! match them, so the fixture pins "resident == streamed at one chunk".
//! The `.vkey` and `.proof` lines are the originals.
//!
//! The `<case>.contributed.*` lines are the once-contributed key and a
//! proof under it, recorded from `setup` → `contribute` → `prove` one
//! commit before `setup_contributed` existed. The ceremony sequence and
//! the single-party key builder must both reproduce them.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use zkperf::circuit::library::{
    exponentiate, merkle_membership_poseidon, merkle_path_inputs_poseidon, multiplier_chain,
};
use zkperf::circuit::{Circuit, Witness};
use zkperf::ec::{Bls12_381, Bn254, CurveParams, Engine};
use zkperf::ff::Field;
use zkperf::groth16::{
    contribute, prove, prove_streamed, setup, setup_contributed, setup_streamed, verify, ProvingKey,
};
use zkperf::io::{
    write_proof, write_vkey, write_zkey, FieldCodec, StreamedZkeyReader, StreamedZkeyWriter,
};
use zkperf::pool;

const FIXTURE: &str = include_str!("fixtures/groth16_kat.txt");

/// The seed of `zkperf::ff::test_rng`.
fn rng() -> StdRng {
    StdRng::seed_from_u64(0x5eed_cafe_f00d_1234)
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Compares length and FNV-1a-64 of `bytes` with the fixture line `name`;
/// on a mismatch the message holds the line this build produced.
fn check(name: &str, context: &str, bytes: &[u8]) {
    let got = format!("{} {:016x}", bytes.len(), fnv1a64(bytes));
    let expected = FIXTURE
        .lines()
        .filter_map(|l| l.split_once(' '))
        .find(|(n, _)| *n == name)
        .map(|(_, v)| v.trim());
    assert!(
        expected == Some(got.as_str()),
        "`{name}` ({context}) differs from the fixture; this build produced:\n{name} {got}"
    );
}

fn proof_bytes<E: Engine>(proof: &zkperf::groth16::Proof<E>) -> Vec<u8>
where
    <E::G1 as CurveParams>::Base: FieldCodec,
    <E::G2 as CurveParams>::Base: FieldCodec,
{
    let mut bytes = Vec::new();
    write_proof::<E>(&mut bytes, proof).unwrap();
    bytes
}

/// Proves under `pk` with `rng` and checks the `.zkey`, `.vkey` and
/// `.proof` lines of `name`.
fn check_key<E: Engine>(
    name: &str,
    context: &str,
    pk: &ProvingKey<E>,
    rng: &mut StdRng,
    circuit: &Circuit<E::Fr>,
    w: &Witness<E::Fr>,
) -> zkperf::groth16::Proof<E>
where
    <E::G1 as CurveParams>::Base: FieldCodec,
    <E::G2 as CurveParams>::Base: FieldCodec,
{
    let proof = prove::<E, _>(pk, circuit.r1cs(), w, rng).unwrap();
    assert!(verify::<E>(&pk.vk, &proof, w.public()).unwrap());
    let (mut zkey, mut vkey) = (Vec::new(), Vec::new());
    write_zkey::<E>(&mut zkey, pk).unwrap();
    write_vkey::<E>(&mut vkey, &pk.vk).unwrap();
    check(&format!("{name}.zkey"), context, &zkey);
    check(&format!("{name}.vkey"), context, &vkey);
    check(&format!("{name}.proof"), context, &proof_bytes::<E>(&proof));
    proof
}

/// Setup → prove → verify through the resident entry points under the
/// ambient pool size and budget: the bare key, then the once-contributed
/// key two ways — the ceremony sequence (`setup` then `contribute`, which
/// recorded the `.contributed.` lines) and the single-party
/// `setup_contributed` — which must also leave the RNG at the same
/// position, so the `prove` that follows draws the same `r`, `s`.
fn check_resident<E: Engine>(name: &str, context: &str, circuit: &Circuit<E::Fr>, w: &Witness<E::Fr>)
where
    <E::G1 as CurveParams>::Base: FieldCodec,
    <E::G2 as CurveParams>::Base: FieldCodec,
{
    let mut plain_rng = rng();
    let pk = setup::<E, _>(circuit.r1cs(), &mut plain_rng).unwrap();
    check_key::<E>(name, context, &pk, &mut plain_rng, circuit, w);

    let contributed = format!("{name}.contributed");
    let mut ceremony_rng = rng();
    let mut ceremony = setup::<E, _>(circuit.r1cs(), &mut ceremony_rng).unwrap();
    contribute::<E, _>(&mut ceremony, &mut ceremony_rng);
    let mut fused_rng = rng();
    let fused = setup_contributed::<E, _>(circuit.r1cs(), &mut fused_rng).unwrap();
    assert_eq!(
        ceremony_rng.clone().next_u64(),
        fused_rng.clone().next_u64(),
        "`{contributed}` ({context}): the two keygens leave the RNG at different positions"
    );
    let by_ceremony = check_key::<E>(
        &contributed,
        &format!("{context}, setup then contribute"),
        &ceremony,
        &mut ceremony_rng,
        circuit,
        w,
    );
    let by_fused = check_key::<E>(
        &contributed,
        &format!("{context}, setup_contributed"),
        &fused,
        &mut fused_rng,
        circuit,
        w,
    );
    assert!(verify::<E>(&fused.vk, &by_ceremony, w.public()).unwrap());
    assert!(verify::<E>(&ceremony.vk, &by_fused, w.public()).unwrap());
}

/// Setup streamed to a chunked `.zkey` file, the proof produced off that
/// file: the same vkey and proof lines as the resident run. At one chunk
/// per query (`usize::MAX`) the file is the resident encoding, so it must
/// match the `.zkey` line too.
fn check_streamed_file<E: Engine>(name: &str, chunk: usize, circuit: &Circuit<E::Fr>, w: &Witness<E::Fr>)
where
    <E::G1 as CurveParams>::Base: FieldCodec,
    <E::G2 as CurveParams>::Base: FieldCodec,
{
    let context = format!("streamed file, {chunk} points per chunk");
    let path = std::env::temp_dir().join(format!(
        "zkperf_groth16_kat_{}_{name}_{chunk}.zks",
        std::process::id()
    ));
    let mut rng = rng();
    let mut writer = StreamedZkeyWriter::<E>::create(&path).unwrap();
    let vk = setup_streamed::<E, _, _>(circuit.r1cs(), &mut rng, chunk, &mut writer).unwrap();
    if chunk == usize::MAX {
        let bytes = std::fs::read(&path).unwrap();
        check(&format!("{name}.zkey"), &context, &bytes);
    }
    let reader = StreamedZkeyReader::<E>::open(&path).unwrap();
    let proof = prove_streamed::<E, _, _>(&reader, circuit.r1cs(), w, &mut rng);
    drop(reader);
    let _ = std::fs::remove_file(&path);
    let mut vkey = Vec::new();
    write_vkey::<E>(&mut vkey, &vk).unwrap();
    check(&format!("{name}.vkey"), &context, &vkey);
    check(&format!("{name}.proof"), &context, &proof_bytes::<E>(&proof.unwrap()));
}

/// One circuit through every configuration that must not move a byte:
/// 1/2/4 threads × {no budget, 4 MiB budget}, then the streamed file at
/// each of `file_chunks` on the ambient pool (`ZKPERF_THREADS` when
/// scripts/check.sh drives this binary).
fn check_case<E: Engine>(
    name: &str,
    circuit: &Circuit<E::Fr>,
    public: &[E::Fr],
    private: &[E::Fr],
    file_chunks: &[usize],
) where
    <E::G1 as CurveParams>::Base: FieldCodec,
    <E::G2 as CurveParams>::Base: FieldCodec,
{
    let w = circuit.generate_witness(public, private).unwrap();
    let ambient = pool::current_threads();
    for threads in [1usize, 2, 4] {
        pool::set_threads(threads);
        for budget in [None, Some(4u64 << 20)] {
            pool::mem::set_budget(budget);
            let context = format!("{threads} thread(s), budget {budget:?}");
            check_resident::<E>(name, &context, circuit, &w);
        }
    }
    pool::set_threads(ambient);
    pool::mem::set_budget(None);
    for &chunk in file_chunks {
        check_streamed_file::<E>(name, chunk, circuit, &w);
    }
}

/// A single `#[test]`: the pool size and the budget are process-global.
#[test]
fn keys_and_proofs_match_the_recorded_bytes() {
    type Fr = zkperf::ff::bn254::Fr;
    let f = Fr::from_u64;
    // One-point chunks cost a full bucket sweep per point, so they run on
    // the small circuits only.
    check_case::<Bn254>("bn254_exponentiate_2e6", &exponentiate(1 << 6), &[f(3)], &[], &[1, 13, 4096, usize::MAX]);
    check_case::<Bn254>("bn254_exponentiate_2e10", &exponentiate(1 << 10), &[f(3)], &[], &[13, 4096, usize::MAX]);
    check_case::<Bn254>("bn254_exponentiate_2e14", &exponentiate(1 << 14), &[f(3)], &[], &[4096, usize::MAX]);
    check_case::<Bn254>(
        "bn254_multiplier_chain_3",
        &multiplier_chain(3),
        &[],
        &[f(2), f(3), f(7)],
        &[1, 13, 4096, usize::MAX],
    );
    let path = [(f(11), true), (f(12), false)];
    let (inputs, _root) = merkle_path_inputs_poseidon(f(7), &path);
    check_case::<Bn254>(
        "bn254_merkle_poseidon_2",
        &merkle_membership_poseidon(2),
        &[],
        &inputs,
        &[1, 13, 4096, usize::MAX],
    );
    type Fr381 = zkperf::ff::bls12_381::Fr;
    check_case::<Bls12_381>(
        "bls12_381_exponentiate_2e6",
        &exponentiate(1 << 6),
        &[Fr381::from_u64(3)],
        &[],
        &[1, 13, 4096, usize::MAX],
    );
}
