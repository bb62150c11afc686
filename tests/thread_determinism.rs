//! Integration: keys and proofs are byte-identical at any thread-pool size.
//!
//! The pool decomposes work purely by input size and reduces in a fixed
//! order, so setup, the contribution sweep, witness evaluation, NTT, MSM,
//! Merkle hashing, and FRI folding must produce the same bits whether
//! they ran serially or on N workers. This is the workspace-level seal on
//! that rule: a full setup→contribute→prove→serialize round at a size
//! that clears every parallel threshold, compared byte for byte across
//! pool sizes — for the randomness-carrying Groth16 and PLONK pipelines
//! (under a pinned RNG) and for the randomness-free STARK pipeline.
//!
//! A single `#[test]` drives all three pipelines because the pool size is
//! process-global state; the second test, which holds the same rule up to
//! the *observed* op stream of a traced run, takes turns with it through
//! [`POOL_SIZE`].

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Mutex;

use zkperf::circuit::library;
use zkperf::core::{measure_cell_backend, BackendKind, Curve, PlonkBackend, ProverBackend, Stage};
use zkperf::ec::Bn254;
use zkperf::ff::{Field, Goldilocks};
use zkperf::groth16::{contribute, prove, setup, verify};
use zkperf::io::{write_proof, write_zkey};
use zkperf::machine::CpuProfile;
use zkperf::plonk::{plonk_prove, plonk_setup, plonk_verify, Commitment};
use zkperf::pool;
use zkperf::stark::StarkParams;
use zkperf_testkit::reference::scale_points_reference;

/// Held by each test while it owns the process-wide pool size.
static POOL_SIZE: Mutex<()> = Mutex::new(());

/// 2^12 constraints splits every pool job of the pairing pipeline into
/// several tasks (MSM windows from 2^10 points, NTT passes from a 2^12
/// domain, setup scalars by 2^11, constraint rows by 2^9).
const CONSTRAINTS: usize = 1 << 12;

/// 2^10 constraints at blowup 8 puts the STARK LDE at 2^13, several tasks
/// per NTT pass as well as per Merkle (64) and FRI fold (256) layer.
const STARK_CONSTRAINTS: usize = 1 << 10;

/// `.zkey` and proof bytes of one setup → contribute → prove round under a
/// pinned RNG. With `reference_sweep` the contributed `L`/`H` queries are
/// replaced by the pre-contribution queries scaled with the per-point
/// loop, which must change nothing.
fn groth16_bytes(reference_sweep: bool) -> (Vec<u8>, Vec<u8>) {
    type Fr = zkperf::ff::bn254::Fr;
    let circuit = library::exponentiate::<Fr>(CONSTRAINTS);
    let mut rng = StdRng::seed_from_u64(0x5eed_cafe_f00d_1234);
    let mut pk = setup::<Bn254, _>(circuit.r1cs(), &mut rng).unwrap();
    let unscaled = reference_sweep.then(|| (pk.l_query.clone(), pk.h_query.clone()));
    // The δ-update `contribute` is about to draw.
    let d = Fr::random(&mut rng.clone());
    contribute::<Bn254, _>(&mut pk, &mut rng);
    if let Some((mut l_query, mut h_query)) = unscaled {
        let d_inv = d.inverse().unwrap();
        scale_points_reference(&mut l_query, &d_inv);
        scale_points_reference(&mut h_query, &d_inv);
        (pk.l_query, pk.h_query) = (l_query, h_query);
    }
    let witness = circuit.generate_witness(&[Fr::from_u64(3)], &[]).unwrap();
    let proof = prove::<Bn254, _>(&pk, circuit.r1cs(), &witness, &mut rng).unwrap();
    assert!(verify::<Bn254>(&pk.vk, &proof, witness.public()).unwrap());
    let (mut zkey, mut bytes) = (Vec::new(), Vec::new());
    write_zkey::<Bn254>(&mut zkey, &pk).unwrap();
    write_proof::<Bn254>(&mut bytes, &proof).unwrap();
    (zkey, bytes)
}

/// The eight circuit commitments of the verifying key and the proof bytes
/// of one PLONK setup → prove round under a pinned RNG. At this size the
/// preprocessing, the grand product and the quotient (4n = 2^15 rows) all
/// split into several pool chunks.
fn plonk_bytes() -> (Vec<Commitment<Bn254>>, Vec<u8>) {
    type Fr = zkperf::ff::bn254::Fr;
    let circuit = library::exponentiate::<Fr>(CONSTRAINTS);
    let mut rng = StdRng::seed_from_u64(0x5eed_cafe_f00d_1234);
    let pk = plonk_setup::<Bn254, _>(circuit.r1cs(), &mut rng).unwrap();
    let witness = circuit.generate_witness(&[Fr::from_u64(3)], &[]).unwrap();
    let proof = plonk_prove(&pk, witness.full()).unwrap();
    assert!(plonk_verify(pk.vk(), &proof, witness.public()));
    let vk = pk.vk();
    let commits = vk.q_commits.iter().chain(&vk.sigma_commits).copied().collect();
    (commits, PlonkBackend::<Bn254>::encode_proof(&proof))
}

fn stark_proof_bytes() -> Vec<u8> {
    type F = Goldilocks;
    let circuit = library::exponentiate::<F>(STARK_CONSTRAINTS);
    let witness = circuit.generate_witness(&[F::from_u64(3)], &[]).unwrap();
    let params = StarkParams {
        blowup: 8,
        num_queries: 16,
    };
    let proof = zkperf::stark::prove(circuit.r1cs(), witness.full(), &params).unwrap();
    zkperf::stark::verify(circuit.r1cs(), witness.public(), &proof, &params).unwrap();
    proof.encode()
}

#[test]
fn proofs_are_byte_identical_across_thread_counts() {
    let _turn = POOL_SIZE.lock().unwrap_or_else(|e| e.into_inner());
    // First round at the ambient pool size (ZKPERF_THREADS when
    // scripts/check.sh drives this binary), then explicit 1/2/4-thread
    // pools; every round must serialize to the same bytes.
    let groth16_baseline = groth16_bytes(false);
    let plonk_baseline = plonk_bytes();
    let stark_baseline = stark_proof_bytes();
    for threads in [1usize, 2, 4] {
        pool::set_threads(threads);
        let (zkey, proof) = groth16_bytes(false);
        assert!(
            zkey == groth16_baseline.0,
            "Groth16 .zkey bytes differ at {threads} thread(s)"
        );
        assert_eq!(
            groth16_baseline.1, proof,
            "Groth16 proof bytes differ at {threads} thread(s)"
        );
        assert!(
            plonk_bytes() == plonk_baseline,
            "PLONK vk commitments or proof bytes differ at {threads} thread(s)"
        );
        assert_eq!(
            stark_baseline,
            stark_proof_bytes(),
            "STARK proof bytes differ at {threads} thread(s)"
        );
    }
    pool::set_threads(1);
    assert!(
        groth16_bytes(true) == groth16_baseline,
        "the batched contribution sweep and the per-point loop disagree"
    );
}

/// A trace session is per-thread, so what it records must not depend on
/// how many workers the pool has: `measure_stage` keeps the pool inline
/// for the session's lifetime, and every stage's counters come out equal.
/// (Before the pool had a serial scope the STARK prover, which never
/// gated its pool calls on the tracer, lost ~95 % of its `Proving` ops to
/// worker threads at two threads and up.)
#[test]
fn traced_op_counts_are_thread_count_invariant() {
    let _turn = POOL_SIZE.lock().unwrap_or_else(|e| e.into_inner());
    let cpu = CpuProfile::i7_8650u();
    let cells = [
        (BackendKind::Groth16, Curve::Bn128),
        (BackendKind::Plonk, Curve::Bn128),
        (BackendKind::Stark, Curve::Goldilocks),
    ];
    for (backend, curve) in cells {
        for log in [8u32, 10] {
            let counts = |threads: usize| -> Vec<_> {
                pool::set_threads(threads);
                let cell = measure_cell_backend(backend, curve, &cpu, 1 << log, &Stage::ALL);
                cell.unwrap().into_iter().map(|m| (m.stage, m.counts)).collect()
            };
            let serial = counts(1);
            for threads in [2usize, 4] {
                assert_eq!(
                    serial,
                    counts(threads),
                    "{backend:?} 2^{log}: traced op counts differ at {threads} threads"
                );
            }
        }
    }
    pool::set_threads(1);
}
