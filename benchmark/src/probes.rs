//! Per-layer probes of a traced run.
//!
//! Two kinds. *Replays* re-run a stage's constituent public calls on the
//! stage's real operands (the five prover MSMs on the real key and
//! witness, `setup` then `contribute`, …) and report how much of the stage
//! they explain (`*_coverage`). *Kernel probes* — marked (k) in the README
//! — time one public kernel on seeded synthetic operands. Each call is a
//! span named after its metric, so `<span>_s` metrics are derived from the
//! span file and only per-op (`_ns`) and ratio metrics are set by hand.

use std::path::Path;

use rand::rngs::StdRng;

use zkperf_circuit::lang;
use zkperf_circuit::poseidon::poseidon_permute;
use zkperf_core::{
    measure_cell, Curve, Groth16Backend, PlonkBackend, ProverBackend, Stage, StarkBackend, Workload,
};
use zkperf_ec::{
    bls12_381, bn254, msm, msm_naive, Affine, Bls12_381, Bn254, CurveParams, Engine,
    FixedBaseTable, Projective,
};
use zkperf_ff::{batch_inverse, Field, Goldilocks, PrimeField};
use zkperf_groth16 as groth16;
use zkperf_groth16::{ChunkedKey, MemorySink, QuerySink, QuerySource, G1_QUERIES};
use zkperf_io as io;
use zkperf_machine::CpuProfile;
use zkperf_plonk as plonk;
use zkperf_poly::{DensePolynomial, Radix2Domain};
use zkperf_pool as pool;
use zkperf_stark as stark;

use crate::harness::Ctx;
use crate::stage::{Artifacts, Backend};
use crate::stats;

type Fr = zkperf_ff::bn254::Fr;
type Fq = zkperf_ff::bn254::Fq;

impl Backend for Groth16Backend<Bn254> {
    const KEYGEN_SPAN: &'static str = "groth16.backend_setup";
    const PROVE_SPAN: &'static str = "groth16.prove";
    const VERIFY_SPAN: &'static str = "groth16.verify";
    const ENCODE_SPAN: &'static str = "io.proof_encode";
    const DECODE_SPAN: &'static str = "io.proof_decode";
}

impl Backend for PlonkBackend<Bn254> {
    const KEYGEN_SPAN: &'static str = "plonk.setup";
    const PROVE_SPAN: &'static str = "plonk.prove";
    const VERIFY_SPAN: &'static str = "plonk.verify";
    const ENCODE_SPAN: &'static str = "io.plonk_proof_encode";
    const DECODE_SPAN: &'static str = "io.plonk_proof_decode";
}

impl Backend for StarkBackend {
    const KEYGEN_SPAN: &'static str = "stark.params";
    const PROVE_SPAN: &'static str = "stark.prove";
    const VERIFY_SPAN: &'static str = "stark.verify";
    const ENCODE_SPAN: &'static str = "stark.proof_encode";
    const DECODE_SPAN: &'static str = "stark.proof_decode";
    // The transparent backend's `setup` is a parameter lookup of ~90 ns:
    // time 2^16 at once, so a sample is milliseconds.
    const KEYGEN_CALLS_PER_SAMPLE: usize = 1 << 16;
}

/// Operations per timed chain of a per-op (`_ns`) probe.
const CHAIN: usize = 4096;

/// Runs `f` `n` times, each in a span called `span`.
fn repeat<T>(ctx: &Ctx, span: &str, n: usize, mut f: impl FnMut() -> T) {
    for _ in 0..n {
        std::hint::black_box(ctx.rec.span(span, &mut f));
    }
}

/// Times `samples` chains of `ops` operations each and records the cost of
/// one operation at the chains' low percentile under the `_ns` metric `name`.
fn per_op_ns(ctx: &mut Ctx, name: &str, samples: usize, ops: usize, mut chain: impl FnMut()) {
    let span = name.strip_suffix("_ns").unwrap_or(name);
    let secs: Vec<f64> = (0..samples)
        .map(|_| ctx.timed(span, &mut chain).1)
        .collect();
    ctx.put(
        name,
        stats::low_percentile(&secs) * 1e9 / ops as f64,
        samples,
    );
}

fn random_vec<F: Field>(rng: &mut StdRng, n: usize) -> Vec<F> {
    (0..n).map(|_| F::random(rng)).collect()
}

/// Sum over `spans` of the low percentile of the spans of each name.
fn sum_of_spans(ctx: &Ctx, spans: &[&str]) -> f64 {
    spans
        .iter()
        .map(|s| stats::low_percentile(&ctx.rec.durations(s)))
        .sum()
}

// ------------------------------------------------------------------ ff --

fn mul_chain<F: Field>(ctx: &mut Ctx, name: &str, rng: &mut StdRng) {
    let (x, y) = (F::random(rng), F::random(rng));
    per_op_ns(ctx, name, 33, CHAIN, || {
        let mut acc = x;
        for _ in 0..CHAIN {
            acc *= y;
        }
        std::hint::black_box(acc);
    });
}

fn inverse_chain<F: Field>(ctx: &mut Ctx, name: &str, rng: &mut StdRng) {
    let x = F::random(rng);
    per_op_ns(ctx, name, 9, CHAIN, || {
        let mut acc = x;
        for _ in 0..CHAIN {
            acc = acc.inverse().unwrap_or(x) + F::one();
        }
        std::hint::black_box(acc);
    });
}

/// (k) BN254 and BLS12-381 field kernels on seeded operands.
pub fn ff_pairing_fields(ctx: &mut Ctx) {
    let mut rng = ctx.seed.rng("probe.ff", 0);
    mul_chain::<Fr>(ctx, "ff.bn254_fr_mul_ns", &mut rng);
    mul_chain::<Fq>(ctx, "ff.bn254_fq_mul_ns", &mut rng);
    mul_chain::<zkperf_ff::bls12_381::Fq>(ctx, "ff.bls12_381_fq_mul_ns", &mut rng);
    let x = Fq::random(&mut rng);
    per_op_ns(ctx, "ff.bn254_fq_square_ns", 33, CHAIN, || {
        let mut acc = x;
        for _ in 0..CHAIN {
            acc = acc.square();
        }
        std::hint::black_box(acc);
    });
    inverse_chain::<Fr>(ctx, "ff.bn254_fr_inverse_ns", &mut rng);
    let values = random_vec::<Fr>(&mut rng, CHAIN);
    let mut buf = values.clone();
    per_op_ns(ctx, "ff.bn254_fr_batch_inverse_ns", 17, CHAIN, || {
        buf.copy_from_slice(&values);
        batch_inverse(&mut buf);
        std::hint::black_box(&buf);
    });
}

/// (k) Goldilocks field and hash kernels.
pub fn ff_goldilocks(ctx: &mut Ctx) {
    let mut rng = ctx.seed.rng("probe.goldilocks", 0);
    mul_chain::<Goldilocks>(ctx, "ff.goldilocks_mul_ns", &mut rng);
    inverse_chain::<Goldilocks>(ctx, "ff.goldilocks_inverse_ns", &mut rng);
    let state: [Goldilocks; 3] = [0; 3].map(|_| Goldilocks::random(&mut rng));
    per_op_ns(ctx, "circuit.poseidon_goldilocks_perm_ns", 17, 1024, || {
        let mut s = state;
        for _ in 0..1024 {
            s = poseidon_permute(s);
        }
        std::hint::black_box(s);
    });
    let row: [Goldilocks; 4] = [0; 4].map(|_| Goldilocks::random(&mut rng));
    per_op_ns(ctx, "stark.hash_row_ns", 17, 1024, || {
        let mut r = row;
        for _ in 0..1024 {
            r[0] = stark::merkle::hash_row(&r);
        }
        std::hint::black_box(r);
    });
}

// ------------------------------------------------------------------ ec --

fn seeded_bases<C: CurveParams>(rng: &mut StdRng, n: usize) -> (Vec<Affine<C>>, Vec<C::Scalar>) {
    let scalars = random_vec::<C::Scalar>(rng, n);
    let table = FixedBaseTable::for_batch(&Projective::<C>::generator(), n);
    (table.mul_batch(&scalars), scalars)
}

/// (k) Curve kernels at the workload's size `2^log2`, plus the BLS12-381
/// pair no workload runs end to end.
pub fn ec_large(ctx: &mut Ctx, log2: u32) {
    let n = 1usize << log2;
    let mut rng = ctx.seed.rng("probe.ec", 0);

    let scalars = random_vec::<Fr>(&mut rng, n);
    let g1 = Projective::<bn254::G1Params>::generator();
    let mut bases = Vec::new();
    repeat(ctx, "ec.fixed_base_g1_2e14", 2, || {
        bases = FixedBaseTable::for_batch(&g1, n).mul_batch(&scalars);
    });
    repeat(ctx, "ec.msm_g1_2e14", 3, || msm(&bases, &scalars));
    let (bases_g2, _) = seeded_bases::<bn254::G2Params>(&mut rng, n);
    repeat(ctx, "ec.msm_g2_2e14", 2, || msm(&bases_g2, &scalars));
    ctx.check(
        "msm == msm_naive at 2^8",
        msm(&bases[..256.min(n)], &scalars[..256.min(n)])
            == msm_naive(&bases[..256.min(n)], &scalars[..256.min(n)]),
    );

    let exps: Vec<_> = scalars
        .iter()
        .take(256)
        .map(PrimeField::to_biguint)
        .collect();
    for (p, e) in bases.iter().zip(&exps) {
        let p = p.to_projective();
        repeat(ctx, "ec.mul_windowed_g1", 1, || p.mul_windowed(e));
    }
    let projective: Vec<_> = bases.iter().map(|p| p.to_projective().double()).collect();
    repeat(ctx, "ec.batch_to_affine_2e14", 3, || {
        Projective::batch_to_affine(&projective)
    });

    let qs: Vec<_> = bases_g2.iter().take(4).copied().collect();
    repeat(ctx, "ec.pairing", 5, || Bn254::pairing(&bases[0], &qs[0]));
    repeat(ctx, "ec.multi_pairing4", 5, || {
        Bn254::multi_pairing(&bases[..qs.len()], &qs)
    });

    let m = 1usize << log2.min(12);
    let (bases381, scalars381) = seeded_bases::<bls12_381::G1Params>(&mut rng, m);
    repeat(ctx, "ec.bls12_381_msm_g1_2e12", 2, || {
        msm(&bases381, &scalars381)
    });
    let q381 = Affine::<bls12_381::G2Params>::generator();
    repeat(ctx, "ec.bls12_381_pairing", 3, || {
        Bls12_381::pairing(&bases381[0], &q381)
    });
}

/// (k) The small-size kernels `serve_mixed` leans on.
pub fn ec_small_and_dispatch(ctx: &mut Ctx) {
    let mut rng = ctx.seed.rng("probe.ec_small", 0);
    let (bases, scalars) = seeded_bases::<bn254::G1Params>(&mut rng, 256);
    repeat(ctx, "ec.msm_g1_2e8", 33, || msm(&bases, &scalars));
    let tasks = ctx.threads.max(2);
    per_op_ns(ctx, "pool.parallel_for_dispatch_ns", 17, 1024, || {
        for _ in 0..1024 {
            pool::parallel_for(tasks, |i| {
                std::hint::black_box(i);
            });
        }
    });
}

// ---------------------------------------------------------------- poly --

/// (k) BN254 NTT kernels around the workload's size `n = 2^log2`: `n`,
/// the `4n` coset domain, and the 2^18 four-step path no workload reaches.
pub fn poly_bn254(ctx: &mut Ctx, log2: u32) {
    let mut rng = ctx.seed.rng("probe.poly", 0);
    let ntt = |ctx: &Ctx, span: &str, log: u32, reps: usize, rng: &mut StdRng, coset: bool| {
        let Some(domain) = Radix2Domain::<Fr>::new(1 << log) else {
            return;
        };
        let values = random_vec::<Fr>(rng, domain.size());
        let mut buf = values.clone();
        for _ in 0..reps {
            buf.copy_from_slice(&values);
            ctx.rec.span(span, || {
                if coset {
                    domain.coset_fft_in_place(&mut buf);
                } else {
                    domain.fft_in_place(&mut buf);
                }
            });
        }
    };
    ntt(ctx, "poly.ntt_bn254_2e14", log2, 9, &mut rng, false);
    ntt(
        ctx,
        "poly.coset_ntt_bn254_2e16",
        log2 + 2,
        5,
        &mut rng,
        true,
    );
    ntt(
        ctx,
        "poly.ntt_bn254_2e18",
        if ctx.smoke { 10 } else { 18 },
        3,
        &mut rng,
        false,
    );

    let Some(domain) = Radix2Domain::<Fr>::new(1 << log2) else {
        return;
    };
    let values = random_vec::<Fr>(&mut rng, domain.size());
    let mut buf = values.clone();
    domain.fft_in_place(&mut buf);
    let evals = buf.clone();
    repeat(ctx, "poly.intt_bn254_2e14", 9, || {
        buf.copy_from_slice(&evals);
        domain.ifft_in_place(&mut buf);
    });
    ctx.check("ifft(fft(x)) == x", buf == values);
    let x = Fr::random(&mut rng);
    repeat(ctx, "poly.lagrange_coeffs_2e14", 5, || {
        domain.lagrange_coefficients_at(x)
    });
}

// ------------------------------------------------------------- groth16 --

/// Replays of the Groth16 keygen, prove and verify stages on their real
/// operands.
pub fn groth16_replays(ctx: &mut Ctx, art: &Artifacts<Groth16Backend<Bn254>>) {
    let r1cs = art.circuit.r1cs();
    let [_, keygen_s, _, prove_s, _] = art.stage_s;

    // keygen = setup + contribute, in that order on one key; as many
    // replays as the traced run takes keygen samples, so the fastest of
    // one is compared with the fastest of the other.
    const KEYGEN_REPLAYS: u64 = 2;
    for i in 0..KEYGEN_REPLAYS {
        let mut rng = ctx.seed.rng("replay.keygen", i);
        let pk = ctx.rec.span("groth16.setup", || {
            groth16::setup::<Bn254, _>(r1cs, &mut rng)
        });
        ctx.op("replay groth16::setup", pk.is_ok());
        if let Ok(mut pk) = pk {
            ctx.rec.span("groth16.contribute", || {
                groth16::contribute::<Bn254, _>(&mut pk, &mut rng)
            });
        }
    }
    let covered = sum_of_spans(ctx, &["groth16.setup", "groth16.contribute"]);
    ctx.put(
        "groth16.keygen_coverage",
        covered / keygen_s,
        KEYGEN_REPLAYS as usize,
    );

    // prove = constraint evaluation + quotient + four G1 MSMs + one G2 MSM
    // (+ two scalar muls and a batch normalisation left uncovered).
    let pk = &art.keys;
    let w = art.witness.full();
    if let Some(domain) = Radix2Domain::<Fr>::new(pk.domain_size) {
        for _ in 0..3 {
            let (a, b, c) = ctx.rec.span("groth16.evaluate_constraints", || {
                groth16::evaluate_constraints(r1cs, &domain, w)
            });
            let h = ctx.rec.span("groth16.qap_h", || {
                groth16::compute_h_coefficients(&domain, a, b, c)
            });
            ctx.rec.span("groth16.prove_msm_g1", || {
                std::hint::black_box(msm(&pk.a_query, w));
                std::hint::black_box(msm(&pk.b_g1_query, w));
                std::hint::black_box(msm(&pk.l_query, &w[pk.num_public_wires..]));
                std::hint::black_box(msm(&pk.h_query, &h));
            });
            ctx.rec.span("groth16.prove_msm_g2", || {
                std::hint::black_box(msm(&pk.b_g2_query, w));
            });
        }
        let covered = sum_of_spans(
            ctx,
            &[
                "groth16.evaluate_constraints",
                "groth16.qap_h",
                "groth16.prove_msm_g1",
                "groth16.prove_msm_g2",
            ],
        );
        ctx.put("groth16.prove_coverage", covered / prove_s, 3);
    }

    repeat(ctx, "groth16.prepare_vk", 5, || {
        groth16::PreparedVerifyingKey::<Bn254>::prepare(&pk.vk)
    });
}

/// `groth16.verify_batch16_per_proof_s`: one combined check over 16
/// proofs of one circuit, per proof.
pub fn groth16_verify_batch16(
    ctx: &mut Ctx,
    keys: &groth16::ProvingKey<Bn254>,
    circuit: &zkperf_circuit::Circuit<Fr>,
    witness: &zkperf_circuit::Witness<Fr>,
) {
    let items: Vec<_> = (0..16u64)
        .filter_map(|i| {
            let mut rng = ctx.seed.rng("batch16", i);
            groth16::prove::<Bn254, _>(keys, circuit.r1cs(), witness, &mut rng).ok()
        })
        .map(|p| (p, witness.public().to_vec()))
        .collect();
    let mut secs = Vec::new();
    for i in 0..9 {
        let (verdict, s) = ctx.timed("groth16.verify_batch16", || {
            groth16::verify_batch::<Bn254, _>(&keys.vk, &items, &mut ctx.seed.rng("batch16.rlc", i))
        });
        ctx.op(
            "verify_batch of 16 honest proofs",
            items.len() == 16 && verdict == Ok(true),
        );
        secs.push(s / 16.0);
    }
    ctx.put_timing("groth16.verify_batch16_per_proof_s", &secs);
}

// --------------------------------------------------------------- plonk --

/// Replays of the PLONK keygen pieces and the KZG kernels on the real
/// circuit.
pub fn plonk_replays(ctx: &mut Ctx, art: &Artifacts<PlonkBackend<Bn254>>) {
    let r1cs = art.circuit.r1cs();
    let mut rng = ctx.seed.rng("replay.plonk", 0);
    let mut arithmetized = None;
    repeat(ctx, "plonk.arithmetize", 2, || {
        arithmetized = plonk::PlonkCircuit::<Fr>::from_r1cs(r1cs).ok();
    });
    ctx.op("replay PlonkCircuit::from_r1cs", arithmetized.is_some());
    let Some(circuit) = arithmetized else { return };
    let n = circuit.n;
    let srs = ctx.rec.span("plonk.srs", || {
        plonk::Srs::<Bn254>::generate(4 * n + 8, &mut rng)
    });

    let Some(domain) = Radix2Domain::<Fr>::new(n) else {
        return;
    };
    let [a, _, _] = circuit.wire_columns(art.witness.full());
    let poly = DensePolynomial::interpolate(&domain, &a);
    repeat(ctx, "plonk.kzg_commit_2e14", 3, || srs.commit(&poly));
    let z = Fr::random(&mut rng);
    let mut opened = None;
    repeat(ctx, "plonk.kzg_open", 2, || {
        opened = Some(srs.open(&poly, z))
    });
    if let Some((value, proof)) = opened {
        ctx.check(
            "kzg opening verifies",
            srs.verify_opening(&srs.commit(&poly), z, value, &proof),
        );
    }
}

// --------------------------------------------------------------- stark --

/// Replays of the STARK prover's public pieces on the real trace, plus the
/// verifier-side path check.
pub fn stark_replays(ctx: &mut Ctx, art: &Artifacts<StarkBackend>) {
    type F = Goldilocks;
    let r1cs = art.circuit.r1cs();
    let w = art.witness.full();
    let [_, _, _, prove_s, _] = art.stage_s;
    let mut cols = None;
    repeat(ctx, "stark.air_trace", 3, || {
        cols = stark::air::build_trace(r1cs, w).ok()
    });
    ctx.op("replay air::build_trace", cols.is_some());
    let Some(cols) = cols else { return };
    let n = cols.layout.n;
    let n_ext = n * art.keys.blowup;
    let (Some(dom_h), Some(dom_lde)) = (Radix2Domain::<F>::new(n), Radix2Domain::<F>::new(n_ext))
    else {
        return;
    };

    // Low-degree extension of the four trace columns: an inverse NTT on H,
    // then a coset NTT on the blown-up domain.
    let extend = |column: &[F]| {
        let mut coeffs = column.to_vec();
        ctx.rec.span("poly.intt_goldilocks_2e14", || {
            dom_h.ifft_in_place(&mut coeffs)
        });
        coeffs.resize(n_ext, F::zero());
        ctx.rec.span("poly.ntt_goldilocks_2e17", || {
            dom_lde.coset_fft_in_place(&mut coeffs)
        });
        coeffs
    };
    let [a, b, c, p] = [&cols.a, &cols.b, &cols.c, &cols.p].map(|col| extend(col));

    let mut tree = None;
    repeat(ctx, "stark.merkle_build_2e17", 2, || {
        tree = Some(stark::merkle::MerkleTree::from_rows(n_ext, |i| {
            vec![a[i], b[i], c[i], p[i]]
        }));
    });
    // The quotient commitment hashes one-element rows over the same domain.
    repeat(ctx, "stark.merkle_build_q_2e17", 1, || {
        stark::merkle::MerkleTree::from_rows(n_ext, |i| vec![a[i]])
    });
    let mut q_coeffs = a.clone();
    ctx.rec.span("poly.coset_intt_goldilocks_2e17", || {
        dom_lde.coset_ifft_in_place(&mut q_coeffs)
    });

    // FRI on a real codeword of the same degree bound and domain as the
    // DEEP composition (its values do not change the work done).
    let lde = stark::fri::LayerDomain {
        shift: dom_lde.coset_shift(),
        omega: dom_lde.group_gen(),
        size: n_ext,
    };
    repeat(ctx, "stark.fri_commit_2e17", 2, || {
        let mut transcript = stark::transcript::Transcript::new(ctx.seed.child("fri", 0));
        stark::fri::fri_commit(a.clone(), n, lde, &mut transcript)
    });
    let beta = F::from_u64(ctx.seed.child("fri.beta", 0));
    repeat(ctx, "stark.fri_fold_2e17", 5, || {
        stark::fri::fold_layer(&a, beta, &lde)
    });

    // One LDE per column, one trace tree, one quotient tree, one inverse
    // coset NTT and one FRI commit make up a proof; the quotient and DEEP
    // evaluation loops and the query openings have no public entry point.
    let per = |span: &str| stats::low_percentile(&ctx.rec.durations(span));
    let covered = per("stark.air_trace")
        + 4.0 * (per("poly.intt_goldilocks_2e14") + per("poly.ntt_goldilocks_2e17"))
        + per("stark.merkle_build_2e17")
        + per("stark.merkle_build_q_2e17")
        + per("poly.coset_intt_goldilocks_2e17")
        + per("stark.fri_commit_2e17");
    ctx.put("stark.prove_coverage", covered / prove_s, 2);

    if let Some(tree) = tree {
        let mut rng = ctx.seed.rng("probe.paths", 0);
        let openings: Vec<_> = (0..1024)
            .map(|_| {
                let i = rand::Rng::gen_range(&mut rng, 0..n_ext as u64) as usize;
                let digest = stark::merkle::hash_row(&[a[i], b[i], c[i], p[i]]);
                (i, digest, tree.open(i))
            })
            .collect();
        let mut all_ok = true;
        per_op_ns(ctx, "stark.verify_path_ns", 9, openings.len(), || {
            for (i, digest, path) in &openings {
                all_ok &= stark::merkle::verify_path(tree.root(), *i, *digest, path);
            }
        });
        ctx.check("opened Merkle paths verify", all_ok);
    }
}

// ------------------------------------------------------------------ io --

fn pump<E: Engine>(
    source: &impl QuerySource<E>,
    sink: &mut impl QuerySink<E>,
) -> Result<(), groth16::StreamError> {
    sink.begin(&source.header())?;
    for q in G1_QUERIES {
        for chunk in source.g1_chunks(q) {
            sink.g1_chunk(q, &chunk?)?;
        }
    }
    for chunk in source.g2_chunks() {
        sink.g2_chunk(&chunk?)?;
    }
    sink.finish(&source.fixed()?)
}

/// `.zkey` write and read, resident and streamed framing, to and from a
/// temp file under `dir` (the path the serve cache takes) and to and from
/// memory (spans only).
pub fn io_zkey(ctx: &mut Ctx, pk: &groth16::ProvingKey<Bn254>, dir: &Path) {
    let path = dir.join("probe.zkey");
    let mut round_trips = true;
    for _ in 0..3 {
        let wrote = ctx.rec.span("io.zkey_write_2e14", || {
            io::write_zkey_file::<Bn254>(&path, pk)
        });
        let read = ctx
            .rec
            .span("io.zkey_read_2e14", || io::read_zkey_file::<Bn254>(&path));
        round_trips &= wrote.is_ok() && read.as_ref().ok() == Some(pk);
    }
    ctx.check("zkey file round-trips", round_trips);
    if let Ok(meta) = std::fs::metadata(&path) {
        ctx.put("io.zkey_bytes", meta.len() as f64, 1);
    }
    let mut bytes = Vec::new();
    let wrote = ctx.rec.span("io.zkey_write_mem_2e14", || {
        io::write_zkey::<Bn254>(&mut bytes, pk)
    });
    let read = ctx.rec.span("io.zkey_read_mem_2e14", || {
        io::read_zkey::<Bn254>(&mut &bytes[..])
    });
    ctx.check(
        "zkey memory round-trips",
        wrote.is_ok() && read.as_ref().ok() == Some(pk),
    );

    let path = dir.join("probe.stream.zkey");
    let chunk_points = 1 << 12;
    let mut round_trips = true;
    for _ in 0..2 {
        let wrote = ctx.rec.span("io.stream_zkey_write_2e14", || {
            let mut writer =
                io::StreamedZkeyWriter::<Bn254>::create(&path).map_err(|e| e.to_string())?;
            pump(&ChunkedKey::new(pk, chunk_points), &mut writer).map_err(|e| e.to_string())
        });
        let read = ctx.rec.span("io.stream_zkey_read_2e14", || {
            let reader = io::StreamedZkeyReader::<Bn254>::open(&path).map_err(|e| e.to_string())?;
            let mut sink = MemorySink::<Bn254>::new();
            pump(&reader, &mut sink).map_err(|e| e.to_string())?;
            sink.into_proving_key()
                .ok_or_else(|| "incomplete key".to_string())
        });
        round_trips &= wrote.is_ok() && read.as_ref().ok() == Some(pk);
    }
    ctx.check("streamed zkey round-trips", round_trips);
}

// ---------------------------------------------------------------- core --

/// `core.pipeline_overhead_s`: the five stages through
/// `Workload::run_stage` minus the same five calls made directly, and the
/// instrument's own cost, `core.measure_cell_2e10_s`.
///
/// The wrapper's cost (a chaos lookup and a cancellation check per stage)
/// does not depend on the circuit, so it is measured where it resolves: at
/// 2^6 the whole pipeline takes ~40 ms, while at 2^14 the ±5 % noise of one
/// 4 s keygen would bury it.
pub fn core_overheads(ctx: &mut Ctx) {
    type B = Groth16Backend<Bn254>;
    const LOG2: u32 = 6;
    let x = [Fr::from_u64(3)];
    let mut differences = Vec::new();
    let mut ok = true;
    for round in 0..9u64 {
        let mut workload = Workload::<B>::exponentiate(1 << LOG2);
        let (verified, through) = ctx.timed("core.run_stage_x5", || {
            Stage::ALL
                .iter()
                .all(|&stage| workload.run_stage(stage).is_ok())
                && workload.verified() == Some(true)
        });
        let (direct_ok, direct) = ctx.timed("core.direct_x5", || {
            let mut rng = ctx.seed.rng("core.direct", round);
            (|| {
                let circuit = lang::compile::<Fr>(workload.source()).ok()?;
                let keys = B::setup(circuit.r1cs(), &mut rng).ok()?;
                let witness = circuit.generate_witness(&x, &[]).ok()?;
                let proof = B::prove(&keys, circuit.r1cs(), &witness, &mut rng).ok()?;
                B::verify(&keys, circuit.r1cs(), &proof, witness.public()).ok()
            })()
        });
        ok &= verified && direct_ok == Some(true);
        differences.push(through - direct);
    }
    ctx.op("Workload::run_stage × 5 against the direct calls", ok);
    ctx.put_median("core.pipeline_overhead_s", &differences);

    let log2 = if ctx.smoke { 6 } else { 10 };
    let (cell, secs) = ctx.timed("core.measure_cell_2e10", || {
        measure_cell(
            Curve::Bn128,
            &CpuProfile::i7_8650u(),
            1 << log2,
            &Stage::ALL,
        )
    });
    ctx.op(
        "measure_cell",
        cell.is_ok_and(|m| m.len() == Stage::ALL.len()),
    );
    ctx.put("core.measure_cell_2e10_s", secs, 1);
}
