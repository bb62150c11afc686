//! Soundness-negative audit: mutated proofs must be rejected.
//!
//! A verifier that accepts everything passes every roundtrip test. This
//! module is the other half of the differential story: starting from a
//! **valid** (proof, key, statement) triple, each *mutation class* applies
//! one structured corruption — a flipped coordinate, a swapped group
//! element, an off-by-one public input, an evaluation moved to the wrong
//! domain point — and asserts verification no longer accepts. A class that
//! is still accepted is a soundness hole, reported with the campaign's
//! replay seed.
//!
//! Classes are deliberately *semantic* (negate `A`, splice `B` from
//! another valid proof, evaluate `z` at ζ instead of ζω…) rather than
//! random bit noise: random corruption nearly always lands off the curve
//! and only exercises the deserialization guard, while these land on
//! well-formed-but-wrong inputs that only the pairing / opening checks can
//! catch.

use rand::Rng;
use zkperf_ec::{Affine, CurveParams, Engine};
use zkperf_ff::{Field, Goldilocks, PrimeField};
use zkperf_groth16::{Proof, VerifyingKey};
use zkperf_plonk::{PlonkProof, PlonkVerifyingKey};
use zkperf_stark::{StarkError, StarkParams, StarkProof};

use crate::rng::SplitRng;

/// The result of one mutation class: `rejected` must be `true`.
#[derive(Debug, Clone)]
pub struct MutationOutcome {
    /// Proof system the class targets (`"groth16"` or `"plonk"`).
    pub scheme: &'static str,
    /// Stable class name, usable in failure reports.
    pub name: &'static str,
    /// Whether the verifier rejected the mutated input (the expectation).
    pub rejected: bool,
    /// Debug rendering of the verifier's verdict.
    pub outcome: String,
}

fn doubled<C: CurveParams>(p: &Affine<C>) -> Affine<C> {
    p.to_projective().double().to_affine()
}

/// A well-formed-looking point that is (overwhelmingly likely) off the
/// curve: same `y`, nudged `x`.
fn off_curve<C: CurveParams>(p: &Affine<C>) -> Affine<C> {
    Affine::new_unchecked(p.x + C::Base::one(), p.y)
}

// --------------------------------------------------------------- Groth16

struct Groth16Fixture<E: Engine> {
    vk: VerifyingKey<E>,
    proof: Proof<E>,
    public: Vec<E::Fr>,
    /// A second valid proof for a *different* statement under the same key.
    proof_other: Proof<E>,
    public_other: Vec<E::Fr>,
}

fn groth16_fixture<E: Engine>(rng: &mut SplitRng) -> Result<Groth16Fixture<E>, String> {
    // y = x^8 with x ≥ 2 keeps the three public wires (1, y, x) pairwise
    // distinct, so swap/tamper mutations genuinely change the statement.
    let circuit = zkperf_circuit::library::exponentiate::<E::Fr>(8);
    let x = E::Fr::from_u64(2 + rng.gen_range(0..64));
    let x_other = x + E::Fr::one();
    let pk = zkperf_groth16::setup::<E, _>(circuit.r1cs(), rng)
        .map_err(|e| format!("fixture setup failed: {e}"))?;
    let mut prove = |x: E::Fr| -> Result<(Proof<E>, Vec<E::Fr>), String> {
        let w = circuit
            .generate_witness(&[x], &[])
            .map_err(|e| format!("fixture witness failed: {e}"))?;
        let proof = zkperf_groth16::prove::<E, _>(&pk, circuit.r1cs(), &w, rng)
            .map_err(|e| format!("fixture prove failed: {e}"))?;
        Ok((proof, w.public().to_vec()))
    };
    let (proof, public) = prove(x)?;
    let (proof_other, public_other) = prove(x_other)?;
    // The fixture itself must verify, otherwise every mutation "passes"
    // vacuously.
    match zkperf_groth16::verify::<E>(&pk.vk, &proof, &public) {
        Ok(true) => {}
        other => return Err(format!("fixture proof does not verify: {other:?}")),
    }
    Ok(Groth16Fixture {
        vk: pk.vk,
        proof,
        public,
        proof_other,
        public_other,
    })
}

fn record_groth16<E: Engine>(
    out: &mut Vec<MutationOutcome>,
    name: &'static str,
    vk: &VerifyingKey<E>,
    proof: &Proof<E>,
    public: &[E::Fr],
) {
    let res = zkperf_groth16::verify::<E>(vk, proof, public);
    out.push(MutationOutcome {
        scheme: "groth16",
        name,
        rejected: !matches!(res, Ok(true)),
        outcome: format!("{res:?}"),
    });
}

/// Runs every Groth16 mutation class against a fresh fixture.
///
/// # Errors
///
/// Fails only when the fixture itself cannot be built or does not verify —
/// a mutation class that is *accepted* is reported in its
/// [`MutationOutcome`], not as an `Err`.
pub fn run_groth16_mutations<E: Engine>(
    rng: &mut SplitRng,
) -> Result<Vec<MutationOutcome>, String> {
    let fx = groth16_fixture::<E>(rng)?;
    let (vk, proof, public) = (&fx.vk, &fx.proof, fx.public.as_slice());
    let mut out = Vec::new();

    // -- proof-element mutations ------------------------------------
    let with = |name: &'static str, p: Proof<E>, out: &mut Vec<MutationOutcome>| {
        record_groth16::<E>(out, name, vk, &p, public);
    };
    with(
        "swap_a_c",
        Proof {
            a: proof.c,
            b: proof.b,
            c: proof.a,
        },
        &mut out,
    );
    with(
        "negate_a",
        Proof {
            a: proof.a.neg(),
            ..proof.clone()
        },
        &mut out,
    );
    with(
        "negate_b",
        Proof {
            b: proof.b.neg(),
            ..proof.clone()
        },
        &mut out,
    );
    with(
        "negate_c",
        Proof {
            c: proof.c.neg(),
            ..proof.clone()
        },
        &mut out,
    );
    with(
        "a_identity",
        Proof {
            a: Affine::identity(),
            ..proof.clone()
        },
        &mut out,
    );
    with(
        "b_identity",
        Proof {
            b: Affine::identity(),
            ..proof.clone()
        },
        &mut out,
    );
    with(
        "c_identity",
        Proof {
            c: Affine::identity(),
            ..proof.clone()
        },
        &mut out,
    );
    with(
        "a_generator",
        Proof {
            a: Affine::generator(),
            ..proof.clone()
        },
        &mut out,
    );
    with(
        "a_doubled",
        Proof {
            a: doubled(&proof.a),
            ..proof.clone()
        },
        &mut out,
    );
    with(
        "b_doubled",
        Proof {
            b: doubled(&proof.b),
            ..proof.clone()
        },
        &mut out,
    );
    with(
        "c_doubled",
        Proof {
            c: doubled(&proof.c),
            ..proof.clone()
        },
        &mut out,
    );
    with(
        "a_off_curve",
        Proof {
            a: off_curve(&proof.a),
            ..proof.clone()
        },
        &mut out,
    );
    with(
        "b_off_curve",
        Proof {
            b: off_curve(&proof.b),
            ..proof.clone()
        },
        &mut out,
    );
    // Splices: each element individually replaced by the matching element
    // of a *different* valid proof — every piece is on-curve and honestly
    // generated, only the combination is wrong.
    with(
        "splice_a_from_other_proof",
        Proof {
            a: fx.proof_other.a,
            ..proof.clone()
        },
        &mut out,
    );
    with(
        "splice_b_from_other_proof",
        Proof {
            b: fx.proof_other.b,
            ..proof.clone()
        },
        &mut out,
    );
    with(
        "splice_c_from_other_proof",
        Proof {
            c: fx.proof_other.c,
            ..proof.clone()
        },
        &mut out,
    );
    record_groth16::<E>(
        &mut out,
        "proof_for_other_statement",
        vk,
        &fx.proof_other,
        public,
    );

    // -- verifying-key mutations ------------------------------------
    let mut vk_swapped = vk.clone();
    std::mem::swap(&mut vk_swapped.gamma_g2, &mut vk_swapped.delta_g2);
    record_groth16::<E>(&mut out, "vk_gamma_delta_swapped", &vk_swapped, proof, public);
    let mut vk_neg_alpha = vk.clone();
    vk_neg_alpha.alpha_g1 = vk_neg_alpha.alpha_g1.neg();
    record_groth16::<E>(&mut out, "vk_alpha_negated", &vk_neg_alpha, proof, public);
    let mut vk_bad_ic = vk.clone();
    vk_bad_ic.ic[1] = doubled(&vk_bad_ic.ic[1]);
    record_groth16::<E>(&mut out, "vk_ic_tampered", &vk_bad_ic, proof, public);

    // -- public-witness mutations -----------------------------------
    let mut tampered = public.to_vec();
    tampered[1] += E::Fr::one();
    record_groth16::<E>(&mut out, "public_output_tampered", vk, proof, &tampered);
    let mut swapped = public.to_vec();
    swapped.swap(1, 2);
    record_groth16::<E>(&mut out, "public_entries_swapped", vk, proof, &swapped);
    let mut zeroed_one = public.to_vec();
    zeroed_one[0] = E::Fr::zero();
    record_groth16::<E>(&mut out, "public_one_wire_zeroed", vk, proof, &zeroed_one);
    record_groth16::<E>(&mut out, "public_truncated", vk, proof, &public[..public.len() - 1]);
    let mut extended = public.to_vec();
    extended.push(E::Fr::one());
    record_groth16::<E>(&mut out, "public_extended", vk, proof, &extended);

    // -- batch verification poisoned by one bad statement -----------
    let batch = [
        (proof.clone(), public.to_vec()),
        (fx.proof_other.clone(), public.to_vec()), // statement mismatch
    ];
    let res = zkperf_groth16::verify_batch::<E, _>(vk, &batch, rng);
    out.push(MutationOutcome {
        scheme: "groth16",
        name: "batch_with_poisoned_statement",
        rejected: !matches!(res, Ok(true)),
        outcome: format!("{res:?}"),
    });
    // Sanity: the all-valid batch still passes (guards against a batch
    // verifier that rejects everything).
    let good_batch = [
        (proof.clone(), public.to_vec()),
        (fx.proof_other.clone(), fx.public_other.clone()),
    ];
    match zkperf_groth16::verify_batch::<E, _>(vk, &good_batch, rng) {
        Ok(true) => {}
        other => return Err(format!("valid batch rejected: {other:?}")),
    }
    Ok(out)
}

// ----------------------------------------------------------------- PLONK

fn record_plonk<E: Engine>(
    out: &mut Vec<MutationOutcome>,
    name: &'static str,
    vk: &PlonkVerifyingKey<E>,
    proof: &PlonkProof<E>,
    public: &[E::Fr],
) where
    <E::G1 as CurveParams>::Base: PrimeField,
{
    let accepted = zkperf_plonk::plonk_verify(vk, proof, public);
    out.push(MutationOutcome {
        scheme: "plonk",
        name,
        rejected: !accepted,
        outcome: format!("accepted = {accepted}"),
    });
}

/// Runs every PLONK mutation class against a fresh fixture.
///
/// # Errors
///
/// Fails only when the fixture itself cannot be built or does not verify.
pub fn run_plonk_mutations<E: Engine>(rng: &mut SplitRng) -> Result<Vec<MutationOutcome>, String>
where
    <E::G1 as CurveParams>::Base: PrimeField,
{
    let circuit = zkperf_circuit::library::exponentiate::<E::Fr>(8);
    let x = E::Fr::from_u64(2 + rng.gen_range(0..64));
    let pk = zkperf_plonk::plonk_setup::<E, _>(circuit.r1cs(), rng)
        .map_err(|e| format!("fixture setup failed: {e}"))?;
    let w = circuit
        .generate_witness(&[x], &[])
        .map_err(|e| format!("fixture witness failed: {e}"))?;
    let proof =
        zkperf_plonk::plonk_prove(&pk, w.full()).map_err(|e| format!("fixture prove failed: {e}"))?;
    let vk = pk.vk();
    let public = w.public();
    if !zkperf_plonk::plonk_verify(vk, &proof, public) {
        return Err("fixture proof does not verify".into());
    }
    let mut out = Vec::new();
    // Order in `evals`: ā, b̄, c̄, s̄σ1, s̄σ2, z̄ω.
    const EVAL_Z_OMEGA: usize = 5;

    // -- commitment mutations ---------------------------------------
    let mut bad = proof.clone();
    bad.wire_commits[0].0 = doubled(&bad.wire_commits[0].0);
    record_plonk::<E>(&mut out, "wire_commit_doubled", vk, &bad, public);
    let mut bad = proof.clone();
    bad.wire_commits.swap(0, 1);
    record_plonk::<E>(&mut out, "wire_commits_swapped", vk, &bad, public);
    let mut bad = proof.clone();
    bad.z_commit.0 = doubled(&bad.z_commit.0);
    record_plonk::<E>(&mut out, "z_commit_doubled", vk, &bad, public);
    let mut bad = proof.clone();
    bad.z_commit = bad.t_commits[0];
    record_plonk::<E>(&mut out, "z_commit_replaced_by_t", vk, &bad, public);
    for (piece, doubled_name, identity_name) in [
        (0, "t_lo_commit_doubled", "t_lo_commit_identity"),
        (1, "t_mid_commit_doubled", "t_mid_dropped_to_identity"),
        (2, "t_hi_commit_doubled", "t_hi_commit_identity"),
    ] {
        let mut bad = proof.clone();
        bad.t_commits[piece].0 = doubled(&bad.t_commits[piece].0);
        record_plonk::<E>(&mut out, doubled_name, vk, &bad, public);
        let mut bad = proof.clone();
        bad.t_commits[piece].0 = Affine::identity();
        record_plonk::<E>(&mut out, identity_name, vk, &bad, public);
    }
    let mut bad = proof.clone();
    bad.t_commits.swap(0, 2);
    record_plonk::<E>(&mut out, "t_pieces_swapped", vk, &bad, public);

    // -- claimed-evaluation mutations -------------------------------
    for (idx, name) in [
        "eval_a_tampered",
        "eval_b_tampered",
        "eval_c_tampered",
        "eval_sigma1_tampered",
        "eval_sigma2_tampered",
        "z_omega_tampered",
    ]
    .into_iter()
    .enumerate()
    {
        let mut bad = proof.clone();
        bad.evals[idx] += E::Fr::one();
        record_plonk::<E>(&mut out, name, vk, &bad, public);
    }
    let mut bad = proof.clone();
    bad.evals.rotate_left(1);
    record_plonk::<E>(&mut out, "evals_rotated", vk, &bad, public);
    // Wrong-domain evaluation: claim z(ζ) where the protocol expects
    // z(ζω) — a correctly computed value for the wrong domain point. The
    // proof no longer carries z(ζ), so it is rebuilt from the witness.
    let plonk = zkperf_plonk::PlonkCircuit::from_r1cs(circuit.r1cs())
        .map_err(|e| format!("fixture arithmetization failed: {e}"))?;
    let domain = zkperf_poly::Radix2Domain::<E::Fr>::new(plonk.n).ok_or("no fixture domain")?;
    let [beta, gamma, _, zeta, _] = crate::oracles::plonk_challenges(vk, public, &proof);
    let z = crate::oracles::plonk_accumulator(
        &plonk,
        &domain,
        &plonk.wire_columns(w.full()),
        beta,
        gamma,
    )?;
    let lagrange = domain.lagrange_coefficients_at(zeta);
    let mut bad = proof.clone();
    bad.evals[EVAL_Z_OMEGA] =
        z.iter().zip(&lagrange).fold(E::Fr::zero(), |acc, (&e, &l)| acc + e * l);
    record_plonk::<E>(&mut out, "z_omega_wrong_domain", vk, &bad, public);

    // -- opening-proof mutations ------------------------------------
    let mut bad = proof.clone();
    bad.w_zeta.0 = doubled(&bad.w_zeta.0);
    record_plonk::<E>(&mut out, "w_zeta_doubled", vk, &bad, public);
    let mut bad = proof.clone();
    bad.w_zeta_omega.0 = doubled(&bad.w_zeta_omega.0);
    record_plonk::<E>(&mut out, "w_zeta_omega_doubled", vk, &bad, public);
    let mut bad = proof.clone();
    std::mem::swap(&mut bad.w_zeta, &mut bad.w_zeta_omega);
    record_plonk::<E>(&mut out, "opening_proofs_swapped", vk, &bad, public);
    // Scaling both sides of one pairing equation by the same factor keeps
    // it true; the batching scalar u is drawn after both witnesses, so the
    // scaled pair meets a different equation.
    let mut bad = proof.clone();
    bad.w_zeta.0 = doubled(&bad.w_zeta.0);
    bad.w_zeta_omega.0 = doubled(&bad.w_zeta_omega.0);
    record_plonk::<E>(&mut out, "both_openings_scaled_by_same_factor", vk, &bad, public);
    let mut bad = proof.clone();
    bad.w_zeta_omega = bad.w_zeta;
    record_plonk::<E>(&mut out, "w_zeta_omega_replaced_by_w_zeta", vk, &bad, public);

    // -- key mutations ----------------------------------------------
    // S_σ3 is the one σ that is never opened: it enters only through the
    // linearisation commitment the verifier assembles.
    let mut wrong_vk = vk.clone();
    wrong_vk.sigma_commits[2].0 = doubled(&wrong_vk.sigma_commits[2].0);
    record_plonk::<E>(&mut out, "vk_sigma3_commit_doubled", &wrong_vk, &proof, public);

    // -- public-input mutations -------------------------------------
    let mut tampered = public.to_vec();
    tampered[1] += E::Fr::one();
    record_plonk::<E>(&mut out, "public_output_tampered", vk, &proof, &tampered);
    let mut swapped = public.to_vec();
    swapped.swap(1, 2);
    record_plonk::<E>(&mut out, "public_entries_swapped", vk, &proof, &swapped);
    record_plonk::<E>(
        &mut out,
        "public_truncated",
        vk,
        &proof,
        &public[..public.len() - 1],
    );
    Ok(out)
}

// ----------------------------------------------------------------- STARK

/// What a STARK mutation class is allowed to die as. Classes whose
/// corruption lands *before* a transcript absorption have one forced
/// variant; classes that also perturb downstream challenges may surface
/// in the first check that reads the re-derived values, so those list the
/// full set of checks that own the corruption.
type StarkExpect = fn(&StarkError) -> bool;

struct StarkFixture {
    circuit: zkperf_circuit::Circuit<Goldilocks>,
    params: StarkParams,
    proof: StarkProof,
    public: Vec<Goldilocks>,
    /// A valid proof for a different statement under the same circuit.
    proof_other: StarkProof,
}

fn stark_fixture(rng: &mut SplitRng) -> Result<StarkFixture, String> {
    type F = Goldilocks;
    // 32 constraints → at least two committed FRI layers at blowup 4, so
    // the per-layer mutation classes have real structure to corrupt.
    let circuit = zkperf_circuit::library::exponentiate::<F>(32);
    let params = StarkParams {
        blowup: 4,
        num_queries: 12,
    };
    let x = F::from_u64(2 + rng.gen_range(0..64));
    let prove_at = |x: F| -> Result<(StarkProof, Vec<F>), String> {
        let w = circuit
            .generate_witness(&[x], &[])
            .map_err(|e| format!("fixture witness failed: {e}"))?;
        let proof = zkperf_stark::prove(circuit.r1cs(), w.full(), &params)
            .map_err(|e| format!("fixture prove failed: {e}"))?;
        Ok((proof, w.public().to_vec()))
    };
    let (proof, public) = prove_at(x)?;
    let (proof_other, _) = prove_at(x + F::one())?;
    if let Err(e) = zkperf_stark::verify(circuit.r1cs(), &public, &proof, &params) {
        return Err(format!("fixture proof does not verify: {e}"));
    }
    Ok(StarkFixture {
        circuit,
        params,
        proof,
        public,
        proof_other,
    })
}

fn record_stark(
    out: &mut Vec<MutationOutcome>,
    fx: &StarkFixture,
    name: &'static str,
    proof: &StarkProof,
    public: &[Goldilocks],
    expect: StarkExpect,
) {
    let res = zkperf_stark::verify(fx.circuit.r1cs(), public, proof, &fx.params);
    // A class only counts as rejected when verification failed *and* the
    // error is both a soundness rejection and one of the typed variants
    // that own this corruption — a mutation falling through to a generic
    // or environmental error is reported as a hole.
    let rejected = matches!(&res, Err(e) if e.is_rejection() && expect(e));
    out.push(MutationOutcome {
        scheme: "stark",
        name,
        rejected,
        outcome: format!("{res:?}"),
    });
}

/// Runs every STARK mutation class against a fresh fixture, asserting
/// each dies in the typed [`StarkError`] variant that owns the corrupted
/// structure.
///
/// # Errors
///
/// Fails only when the fixture itself cannot be built or does not verify.
pub fn run_stark_mutations(rng: &mut SplitRng) -> Result<Vec<MutationOutcome>, String> {
    type F = Goldilocks;
    let fx = stark_fixture(rng)?;
    let (proof, public) = (&fx.proof, fx.public.as_slice());
    let one = F::one();
    let mut out = Vec::new();
    let with = |name: &'static str,
                    mutate: &dyn Fn(&mut StarkProof),
                    expect: StarkExpect,
                    out: &mut Vec<MutationOutcome>| {
        let mut bad = proof.clone();
        mutate(&mut bad);
        record_stark(&mut *out, &fx, name, &bad, public, expect);
    };

    // -- commitment mutations ---------------------------------------
    // The tampered root perturbs every later challenge, so the first
    // check that can see it is the OOD identity; the Merkle check owns
    // it when the challenges happen to survive.
    with(
        "trace_root_tampered",
        &|p| p.trace_root += one,
        |e| {
            matches!(
                e,
                StarkError::OodInconsistent | StarkError::MerklePath { tree: "trace", .. }
            )
        },
        &mut out,
    );
    with(
        "quotient_root_tampered",
        &|p| p.q_root += one,
        |e| {
            matches!(
                e,
                StarkError::OodInconsistent | StarkError::MerklePath { tree: "quotient", .. }
            )
        },
        &mut out,
    );
    with(
        "fri_layer_commitment_tampered",
        &|p| p.fri_roots[0] += one,
        // Re-derived β and query indices change first; an index collision
        // falls through to the FRI Merkle check that owns the root.
        |e| {
            matches!(
                e,
                StarkError::Malformed { what: "query index" }
                    | StarkError::MerklePath { tree: "fri", .. }
            )
        },
        &mut out,
    );

    // -- out-of-domain mutations ------------------------------------
    with(
        "ood_trace_eval_tampered",
        &|p| p.ood[0] += one,
        |e| matches!(e, StarkError::OodInconsistent),
        &mut out,
    );
    with(
        "ood_quotient_eval_tampered",
        &|p| p.ood[4] += one,
        |e| matches!(e, StarkError::OodInconsistent),
        &mut out,
    );

    // -- header / parameter mutations -------------------------------
    with(
        "header_blowup_mismatch",
        &|p| p.blowup *= 2,
        |e| matches!(e, StarkError::ParamsMismatch { what: "blowup", .. }),
        &mut out,
    );
    with(
        "header_query_count_mismatch",
        &|p| p.num_queries += 1,
        |e| matches!(e, StarkError::ParamsMismatch { what: "num_queries", .. }),
        &mut out,
    );

    // -- structural truncations -------------------------------------
    with(
        "query_set_truncated",
        &|p| {
            p.queries.pop();
        },
        |e| matches!(e, StarkError::Malformed { what: "query count" }),
        &mut out,
    );
    with(
        "fri_layers_truncated",
        &|p| {
            p.fri_roots.pop();
        },
        |e| matches!(e, StarkError::Malformed { what: "fri layer count" }),
        &mut out,
    );
    with(
        "final_polynomial_tampered",
        &|p| p.final_coeffs[0] += one,
        // The final coefficients are absorbed before the query indices
        // are drawn, so the index check usually fires; the final-poly
        // spot check owns it otherwise.
        |e| {
            matches!(
                e,
                StarkError::Malformed { what: "query index" } | StarkError::FriFinal { .. }
            )
        },
        &mut out,
    );

    // -- per-query opening mutations --------------------------------
    with(
        "query_index_tampered",
        &|p| p.queries[0].index += 1,
        |e| matches!(e, StarkError::Malformed { what: "query index" }),
        &mut out,
    );
    with(
        "trace_opening_tampered",
        &|p| p.queries[0].trace_row[0] += one,
        |e| matches!(e, StarkError::MerklePath { tree: "trace", query: 0 }),
        &mut out,
    );
    with(
        "trace_path_tampered",
        &|p| p.queries[0].trace_path[0] += one,
        |e| matches!(e, StarkError::MerklePath { tree: "trace", query: 0 }),
        &mut out,
    );
    with(
        "quotient_opening_tampered",
        &|p| p.queries[0].q_value += one,
        |e| matches!(e, StarkError::MerklePath { tree: "quotient", query: 0 }),
        &mut out,
    );
    with(
        "fri_opening_tampered",
        &|p| p.queries[0].fri[0].lo += one,
        |e| matches!(e, StarkError::MerklePath { tree: "fri", query: 0 }),
        &mut out,
    );
    with(
        "fri_openings_swapped",
        &|p| {
            let step = &mut p.queries[0].fri[0];
            std::mem::swap(&mut step.lo, &mut step.hi);
            std::mem::swap(&mut step.lo_path, &mut step.hi_path);
        },
        // Each value now rides a path authenticating the opposite leaf
        // slot; a (vanishingly unlikely) colliding layout would surface
        // in the DEEP consistency check instead.
        |e| {
            matches!(
                e,
                StarkError::MerklePath { tree: "fri", .. } | StarkError::DeepMismatch { .. }
            )
        },
        &mut out,
    );

    // -- statement mutations ----------------------------------------
    let mut tampered = public.to_vec();
    tampered[1] += one;
    record_stark(&mut out, &fx, "public_input_tampered", proof, &tampered, |e| {
        matches!(e, StarkError::OodInconsistent)
    });
    record_stark(
        &mut out,
        &fx,
        "public_truncated",
        proof,
        &public[..public.len() - 1],
        |e| matches!(e, StarkError::ParamsMismatch { what: "public input count", .. }),
    );
    record_stark(
        &mut out,
        &fx,
        "proof_for_other_statement",
        &fx.proof_other,
        public,
        |e| matches!(e, StarkError::OodInconsistent),
    );

    // -- byte-level mutations ---------------------------------------
    // Garbage and truncation must die in the decoder, never reach the
    // verifier: serve hands this decoder untrusted job payloads.
    let bytes = proof.encode();
    let decode_rejects = |what: &str, bytes: &[u8]| -> MutationOutcome {
        let res = StarkProof::decode(bytes);
        MutationOutcome {
            scheme: "stark",
            name: match what {
                "truncated" => "encoding_truncated",
                _ => "encoding_garbage",
            },
            rejected: matches!(res, Err(StarkError::Decode { .. })),
            outcome: format!("{:?}", res.map(|_| "decoded")),
        }
    };
    out.push(decode_rejects("truncated", &bytes[..bytes.len() / 2]));
    // A non-canonical field word (≥ p) must be refused, not reduced:
    // stomp the trace-root word (bytes 40..48, after magic + 4 header
    // words) with u64::MAX.
    let mut garbage = bytes.clone();
    garbage[40..48].copy_from_slice(&u64::MAX.to_le_bytes());
    out.push(decode_rejects("garbage", &garbage));

    Ok(out)
}

/// Runs the full mutation suite (Groth16 over BN254 and BLS12-381, PLONK
/// over BN254, STARK over Goldilocks) and returns every class outcome.
///
/// # Errors
///
/// Propagates fixture construction failures; accepted mutations are
/// reported in the outcomes, not as errors.
pub fn run_all_mutations(rng: &mut SplitRng) -> Result<Vec<MutationOutcome>, String> {
    let mut out = run_groth16_mutations::<zkperf_ec::Bn254>(&mut rng.fork(1))?;
    // The same Groth16 classes over the second curve guard curve-specific
    // verifier shortcuts; they share class names, so distinct-class counts
    // stay per-scheme.
    out.extend(run_groth16_mutations::<zkperf_ec::Bls12_381>(&mut rng.fork(2))?);
    out.extend(run_plonk_mutations::<zkperf_ec::Bn254>(&mut rng.fork(3))?);
    out.extend(run_stark_mutations(&mut rng.fork(4))?);
    Ok(out)
}

/// Number of *distinct* (scheme, class-name) pairs in a set of outcomes.
pub fn distinct_classes(outcomes: &[MutationOutcome]) -> usize {
    outcomes
        .iter()
        .map(|o| (o.scheme, o.name))
        .collect::<std::collections::HashSet<_>>()
        .len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groth16_mutation_classes_all_rejected_bn254() {
        let mut rng = SplitRng::from_seed(0x50d4);
        let outcomes = run_groth16_mutations::<zkperf_ec::Bn254>(&mut rng).unwrap();
        assert!(outcomes.len() >= 20);
        for o in &outcomes {
            assert!(o.rejected, "{} accepted a mutated input: {}", o.name, o.outcome);
        }
    }

    #[test]
    fn plonk_mutation_classes_all_rejected() {
        let mut rng = SplitRng::from_seed(0x50d5);
        let outcomes = run_plonk_mutations::<zkperf_ec::Bn254>(&mut rng).unwrap();
        assert!(outcomes.len() >= 28);
        for o in &outcomes {
            assert!(o.rejected, "{} accepted a mutated input: {}", o.name, o.outcome);
        }
    }

    #[test]
    fn stark_mutation_classes_all_die_in_their_typed_variant() {
        let mut rng = SplitRng::from_seed(0x50d6);
        let outcomes = run_stark_mutations(&mut rng).unwrap();
        assert!(outcomes.len() >= 12, "only {} STARK classes", outcomes.len());
        for o in &outcomes {
            assert!(
                o.rejected,
                "{} was not rejected with its typed error: {}",
                o.name, o.outcome
            );
        }
    }
}
