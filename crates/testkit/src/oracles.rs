//! Differential oracles: every optimized kernel pinned to a slow
//! reference.
//!
//! Each oracle runs **one** randomized case from a caller-supplied
//! [`SplitRng`] and reports any divergence as an `Err(detail)`. The
//! campaign layer (`campaign`) owns iteration, seed addressing and
//! replay reporting, so an oracle body stays a pure function of its RNG.
//!
//! The oracle inventory covers, per the kernel overhaul PRs:
//!
//! | optimized kernel                     | reference                        |
//! |--------------------------------------|----------------------------------|
//! | no-carry CIOS Montgomery mul/sqr     | `BigUint` schoolbook mod-mul     |
//! | modular add/sub/neg/double           | `BigUint` canonical arithmetic   |
//! | Fermat inverse + `batch_inverse`     | per-element inverse + product=1  |
//! | signed-window batch-affine `msm`     | `msm_naive` + double-and-add     |
//! | 8-lane IFMA batch-affine round (G1)  | the scalar `BatchAdder` body     |
//! | GLV lattice decomposition            | `k1 + λ·k2 ≡ k (mod r)` BigUint  |
//! | GLV msm / `mul_windowed` Straus      | naive MSM + double-and-add       |
//! | shared-scalar `scale_points`         | double-and-add + per-point loop  |
//! | `FixedBaseTable` mul / `mul_batch`   | double-and-add                   |
//! | cached-twiddle NTT (fwd/inv/coset)   | O(n²) DFT, orders 2^k and 3·2^k  |
//! | `Radix2Domain::element`, Lagrange    | ω-power run + interpolation      |
//! | twisted pairing + prepared G2 lines  | untwisted Miller + BigUint exp   |
//! | N-thread pool execution              | 1-thread execution, bit-for-bit  |
//! | Groth16 / PLONK pipelines            | end-to-end accept on valid input |
//! | PLONK evaluations, `r₀`, openings    | Lagrange basis + unbatched KZG   |
//! | Goldilocks field arithmetic          | `BigUint` canonical arithmetic   |
//! | Poseidon Merkle tree (STARK)         | recursive shared-nothing root    |
//! | FRI fold kernel                      | even/odd Horner on squared coset |
//! | STARK pipeline + proof codec         | end-to-end accept + roundtrip    |
//! | `.zkey` decoder (any chunking)       | typed error or exact re-encoding |

use rand::Rng;
use zkperf_ec::{
    msm, msm_naive, msm_stream, scale_points, Affine, CurveParams, Engine, FixedBaseTable,
    Projective, SCALE_CHUNK,
};
use zkperf_ff::{batch_inverse, BigUint, Field, Goldilocks, PrimeField};
use zkperf_poly::Radix2Domain;
use zkperf_pool as pool;
use zkperf_stark::fri::{fold_layer, fold_pair, LayerDomain};
use zkperf_stark::merkle::{hash_row, verify_path, MerkleTree};
use zkperf_stark::{StarkParams, StarkProof};

use crate::gen::{
    adversarial_circuit, adversarial_domain_order, adversarial_field, adversarial_len,
    adversarial_points, adversarial_pow2, adversarial_scalars, edge_fields, lane_edge,
};
use crate::reference::{
    add_mod_biguint, coset_dft_reference, dft_reference, horner, merkle_root_reference,
    merkle_row_digest_reference, msm_double_and_add, mul_mod_biguint, pow_mod_biguint,
    scale_points_reference, sub_mod_biguint,
};
use crate::rng::SplitRng;

/// A named differential oracle; `run` executes one randomized case.
pub struct Oracle {
    /// Stable identifier used in replay commands and `--only` filters.
    pub name: &'static str,
    /// Runs one case; `Err` carries the divergence detail.
    pub run: fn(&mut SplitRng) -> Result<(), String>,
}

/// Shorthand for oracle bodies.
pub type CaseResult = Result<(), String>;

fn fail(kernel: &str, detail: impl std::fmt::Display) -> CaseResult {
    Err(format!("{kernel}: {detail}"))
}

// ---------------------------------------------------------------- fields

fn field_ops_case<F: PrimeField>(rng: &mut SplitRng) -> CaseResult {
    for _ in 0..16 {
        let a: F = adversarial_field(rng);
        let b: F = adversarial_field(rng);
        if a * b != mul_mod_biguint(a, b) {
            return fail("mont_mul", format_args!("{a} * {b}"));
        }
        if a.square() != mul_mod_biguint(a, a) {
            return fail("mont_sqr", a);
        }
        if a + b != add_mod_biguint(a, b) {
            return fail("mod_add", format_args!("{a} + {b}"));
        }
        if a - b != sub_mod_biguint(a, b) {
            return fail("mod_sub", format_args!("{a} - {b}"));
        }
        if a.double() != add_mod_biguint(a, a) {
            return fail("double", a);
        }
        if !(a + (-a)).is_zero() {
            return fail("neg", a);
        }
        // Montgomery round-trip: canonical limbs must re-embed to the
        // same element.
        if F::from_biguint(&a.to_biguint()) != a {
            return fail("mont_roundtrip", a);
        }
    }
    Ok(())
}

fn field_inverse_case<F: PrimeField>(rng: &mut SplitRng) -> CaseResult {
    // Fermat inverse and pow against BigUint square-and-multiply.
    let a: F = adversarial_field(rng);
    match a.inverse() {
        None if !a.is_zero() => return fail("inverse", format_args!("None for nonzero {a}")),
        Some(inv) if !(a * inv).is_one() => {
            return fail("inverse", format_args!("a * a^-1 != 1 for {a}"));
        }
        _ => {}
    }
    let exp = BigUint::from_u64(rng.gen::<u64>());
    if a.pow(&exp) != pow_mod_biguint(a, &exp) {
        return fail("pow", a);
    }
    // batch_inverse against per-element inversion, zeros preserved.
    let n = adversarial_len(rng, 64);
    let values: Vec<F> = adversarial_scalars(rng, n);
    let mut batched = values.clone();
    batch_inverse(&mut batched);
    for (i, (orig, fast)) in values.iter().zip(&batched).enumerate() {
        let expect = orig.inverse().unwrap_or_else(F::zero);
        if *fast != expect {
            return fail("batch_inverse", format_args!("slot {i} of {n}"));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------- curves

fn msm_case<C: CurveParams>(rng: &mut SplitRng) -> CaseResult {
    let n = adversarial_len(rng, 300);
    let bases: Vec<Affine<C>> = adversarial_points(rng, n);
    let scalars: Vec<C::Scalar> = adversarial_scalars(rng, n);
    let fast = msm(&bases, &scalars);
    let naive = msm_naive(&bases, &scalars);
    if fast != naive {
        return fail("msm vs msm_naive", format_args!("n = {n}"));
    }
    // And both against the shared-nothing double-and-add reference.
    if naive != msm_double_and_add(&bases, &scalars) {
        return fail("msm_naive vs double_and_add", format_args!("n = {n}"));
    }
    // Mismatched slice lengths: documented truncation to the shorter side.
    if n > 1 {
        let truncated = msm(&bases[..n - 1], &scalars);
        let expect = msm_naive(&bases[..n - 1], &scalars[..n - 1]);
        if truncated != expect {
            return fail("msm length truncation", format_args!("n = {n}"));
        }
    }
    Ok(())
}

fn fixed_base_case<C: CurveParams>(rng: &mut SplitRng) -> CaseResult {
    let base = if rng.gen_bool(0.1) {
        Projective::<C>::identity()
    } else {
        Projective::<C>::random(rng)
    };
    let bits = 1 + rng.gen_range(0..10) as usize;
    let table = FixedBaseTable::<C>::with_window_bits(&base, bits);
    let n = adversarial_len(rng, 48).max(1);
    let scalars: Vec<C::Scalar> = adversarial_scalars(rng, n);
    let base_affine = base.to_affine();
    for s in &scalars {
        let expect = crate::reference::scalar_mul_double_and_add(&base_affine, s);
        if table.mul(s) != expect {
            return fail("fixed_base mul", format_args!("window {bits}, scalar {s}"));
        }
    }
    let batch = table.mul_batch(&scalars);
    for (i, (s, got)) in scalars.iter().zip(&batch).enumerate() {
        let expect = crate::reference::scalar_mul_double_and_add(&base_affine, s).to_affine();
        if *got != expect {
            return fail(
                "fixed_base mul_batch",
                format_args!("window {bits}, slot {i}"),
            );
        }
    }
    Ok(())
}

fn batch_to_affine_case<C: CurveParams>(rng: &mut SplitRng) -> CaseResult {
    let n = adversarial_len(rng, 64);
    let points: Vec<Projective<C>> = adversarial_points::<C>(rng, n)
        .iter()
        .map(Affine::to_projective)
        .collect();
    let batch = Projective::batch_to_affine(&points);
    for (i, (p, got)) in points.iter().zip(&batch).enumerate() {
        if *got != p.to_affine() {
            return fail("batch_to_affine", format_args!("slot {i} of {n}"));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------- lanes

/// The 8-lane bucket-add round of BN254 G1 against the scalar body, bit for
/// bit. Segments of 0–17 points over coordinates at limb boundaries (off
/// the curve: a round is field arithmetic), with identity, duplicate
/// (`Double`) and negated (cancelling) pairs landing in every lane
/// position; half the cases are one segment whose first round has 1–9
/// pairs, so every tail of a lane batch comes up. Then the same rounds
/// inside Pippenger at 1, 2 and 4 threads against the scalar body at one.
fn batch_add_lanes_case(rng: &mut SplitRng) -> CaseResult {
    use zkperf_ec::bn254::{G1Affine, G1Params};
    use zkperf_ec::BatchAdder;
    use zkperf_ff::bn254::FqParams;
    use zkperf_ff::lanes::with_scalar_body;

    let lens: Vec<usize> = if rng.gen_bool(0.5) {
        vec![2 + rng.gen_range(0..18) as usize]
    } else {
        let segments = 1 + rng.gen_range(0..6);
        (0..segments).map(|_| rng.gen_range(0..18) as usize).collect()
    };
    let mut points: Vec<G1Affine> = Vec::new();
    let mut segs = Vec::new();
    for len in lens {
        segs.push((points.len(), len));
        for i in 0..len {
            // The second point of a pair may copy or negate the first.
            let first = points.last().copied().filter(|_| i % 2 == 1);
            let point = match (rng.gen_range(0..8), first) {
                (0, _) => G1Affine::identity(),
                (1, Some(p)) => p,
                (2, Some(p)) => p.neg(),
                _ => G1Affine::new_unchecked(lane_edge::<FqParams>(rng), lane_edge::<FqParams>(rng)),
            };
            points.push(point);
        }
    }
    let reduce = || {
        let (mut out, mut out_segs) = (points.clone(), segs.clone());
        BatchAdder::<G1Params>::new().reduce_segments(&mut out, &mut out_segs);
        (out, out_segs)
    };
    if reduce() != with_scalar_body(reduce) {
        return fail("batch_add lanes vs scalar body", format_args!("segments {segs:?}"));
    }

    let _guard = ThreadGuard;
    let n = (1 << 10) + rng.gen_range(0..200) as usize;
    let bases: Vec<G1Affine> = adversarial_points(rng, n);
    let scalars: Vec<zkperf_ff::bn254::Fr> = adversarial_scalars(rng, n);
    pool::set_threads(1);
    let expect = with_scalar_body(|| msm(&bases, &scalars)).to_affine();
    for threads in [1usize, 2, 4] {
        pool::set_threads(threads);
        if msm(&bases, &scalars).to_affine() != expect {
            return fail("batch_add lanes msm", format_args!("{threads} threads, n = {n}"));
        }
    }
    Ok(())
}

/// The `Fr` lane butterflies against the scalar formula, bit for bit: one
/// run of 8–64 butterflies over limb-edge values, its twiddles from a
/// strided table or a run of powers (the uncached path); then forward,
/// inverse and coset transforms of a domain of order `2^k` or `3·2^k`
/// (up to 3·2^10) at 1, 2 and 4 threads against the scalar body at one.
fn ntt_lanes_case(rng: &mut SplitRng) -> CaseResult {
    use zkperf_ff::bn254::{Fr, FrParams};
    use zkperf_ff::lanes::{with_scalar_body, Twiddles};

    if let Some(lanes) = Fr::lanes() {
        let len = 8 * (1 + rng.gen_range(0..8)) as usize;
        let stride = 1 + rng.gen_range(0..3) as usize;
        let k0 = rng.gen_range(0..len as u64) as usize;
        let mut edges =
            |n: usize| -> Vec<Fr> { (0..n).map(|_| lane_edge::<FrParams>(rng)).collect() };
        let (lo, hi, table) = (edges(len), edges(len), edges((k0 + len) * stride));
        let [w0, step] = [lane_edge::<FrParams>(rng), lane_edge::<FrParams>(rng)];
        let powers = rng.gen_bool(0.5);
        let mut w = w0;
        let factors: Vec<Fr> = (0..len)
            .map(|k| {
                if !powers {
                    return table[(k0 + k) * stride];
                }
                let f = w;
                w *= step;
                f
            })
            .collect();
        let twiddles = if powers {
            Twiddles::Powers { w0, step }
        } else {
            Twiddles::Table { table: &table, stride, k0 }
        };
        let (mut got_lo, mut got_hi) = (lo.clone(), hi.clone());
        lanes.butterflies(&mut got_lo, &mut got_hi, twiddles);
        for k in 0..len {
            let t = hi[k] * factors[k];
            if (got_lo[k], got_hi[k]) != (lo[k] + t, lo[k] - t) {
                return fail(
                    "ntt lanes butterfly run",
                    format_args!("butterfly {k} of {len}, powers {powers}, stride {stride}"),
                );
            }
        }
    }

    let _guard = ThreadGuard;
    let size = adversarial_domain_order(rng, 10);
    let Some(domain) = Radix2Domain::<Fr>::new(size) else {
        return fail("ntt lanes", format_args!("no domain of size {size}"));
    };
    let coeffs: Vec<Fr> = (0..domain.size()).map(|_| lane_edge::<FrParams>(rng)).collect();
    let transforms = || {
        let (mut fwd, mut coset) = (coeffs.clone(), coeffs.clone());
        domain.fft_in_place(&mut fwd);
        domain.coset_fft_in_place(&mut coset);
        let mut inv = fwd.clone();
        domain.ifft_in_place(&mut inv);
        (fwd, coset, inv)
    };
    pool::set_threads(1);
    let expect = with_scalar_body(transforms);
    if expect.2 != coeffs {
        return fail("ntt lanes scalar round trip", format_args!("size {size}"));
    }
    for threads in [1usize, 2, 4] {
        pool::set_threads(threads);
        if transforms() != expect {
            return fail("ntt lanes vs scalar body", format_args!("size {size}, {threads} threads"));
        }
    }
    Ok(())
}

/// PLONK's quotient rows in lanes against scalar rows, bit for bit: one
/// pointwise row shape — gate, both permutation products, the `L₁` and
/// public terms, `1/Z_H` by phase — over eight limb-edge rows through
/// `lanes::Vector` ops; then a proof of a small circuit under both bodies
/// at 1, 2 and 4 threads (the prover's own quotient loop).
fn quotient_lanes_case(rng: &mut SplitRng) -> CaseResult {
    use rand::SeedableRng;
    use zkperf_ff::bn254::{Fr, FrParams};
    use zkperf_ff::lanes::with_scalar_body;

    if let Some(lanes) = Fr::lanes() {
        let mut column = || -> [Fr; 8] { std::array::from_fn(|_| lane_edge::<FrParams>(rng)) };
        let [a, b, c, z, zw, ql, qm, qo, qc, s1, s2, s3, l1, pi_l, x, zh] =
            std::array::from_fn(|_| column());
        let [beta, gamma, alpha, beta_k, v] = std::array::from_fn(|_| lane_edge::<FrParams>(rng));
        let one = Fr::one();
        let alpha2 = alpha.square();
        let row = |i: usize| {
            let gate = ql[i] * a[i] + qm[i] * (a[i] * b[i]) + qo[i] * c[i] + qc[i] - v * pi_l[i];
            let perm1 = z[i] * (a[i] + beta_k * x[i] + gamma) * (b[i] + beta_k * x[i] + gamma)
                - zw[i] * (a[i] + beta * s1[i] + gamma) * (b[i] + beta * s2[i] + gamma)
                    * (c[i] + beta * s3[i] + gamma);
            let perm2 = (z[i] - one) * l1[i];
            (gate + alpha * perm1 + alpha2 * perm2) * zh[i]
        };
        let ld = |col: &[Fr; 8]| lanes.load(col);
        let sp = |v: Fr| lanes.splat(v);
        let (va, vb, vz, vx) = (ld(&a), ld(&b), ld(&z), ld(&x));
        let gate = ld(&ql) * va + ld(&qm) * (va * vb) + ld(&qo) * ld(&c) + ld(&qc)
            - sp(v) * ld(&pi_l);
        let perm1 = vz * (va + sp(beta_k) * vx + sp(gamma)) * (vb + sp(beta_k) * vx + sp(gamma))
            - ld(&zw)
                * (va + sp(beta) * ld(&s1) + sp(gamma))
                * (vb + sp(beta) * ld(&s2) + sp(gamma))
                * (ld(&c) + sp(beta) * ld(&s3) + sp(gamma));
        let perm2 = (vz - sp(one)) * ld(&l1);
        let mut got = [Fr::zero(); 8];
        ((gate + sp(alpha) * perm1 + sp(alpha2) * perm2) * ld(&zh)).store(&mut got);
        for (i, &lane) in got.iter().enumerate() {
            if lane != row(i) {
                return fail("quotient lanes row", format_args!("lane {i}"));
            }
        }
    }

    let _guard = ThreadGuard;
    let circuit =
        zkperf_circuit::library::exponentiate::<Fr>(4 + rng.gen_range(0..400) as usize);
    let witness = circuit
        .generate_witness(&[Fr::from_u64(3)], &[])
        .map_err(|e| format!("witness failed: {e}"))?;
    let seed = rng.gen();
    let prove = || {
        let mut keys_rng = rand::rngs::StdRng::seed_from_u64(seed);
        let pk = zkperf_plonk::plonk_setup::<zkperf_ec::Bn254, _>(circuit.r1cs(), &mut keys_rng)
            .map_err(|e| format!("setup failed: {e}"))?;
        zkperf_plonk::plonk_prove(&pk, witness.full()).map_err(|e| format!("prove failed: {e}"))
    };
    pool::set_threads(1);
    let expect = with_scalar_body(prove)?;
    for threads in [1usize, 2, 4] {
        pool::set_threads(threads);
        if prove()? != expect {
            return fail(
                "quotient lanes proof vs scalar body",
                format_args!("{}, {threads} threads", circuit.name()),
            );
        }
    }
    Ok(())
}

// ------------------------------------------------------------------ GLV

/// Folds a signed half-width GLV component into `Z/r`: `|x| mod r`,
/// negated when the sign bit is set.
fn signed_half_mod_r(x: &zkperf_ec::SignedHalf, r: &BigUint) -> BigUint {
    let mag = BigUint::from_limbs(&x.limbs).rem(r);
    if x.neg && !mag.is_zero() {
        r.checked_sub(&mag).expect("mag < r after reduction")
    } else {
        mag
    }
}

/// Scalars that stress the lattice decomposition: the eigenvalue λ and
/// its neighbours (the decomposition pivots there), the full-order scalar
/// `r − 1`, the half-width bound `2^half_bits ± 1` (where `k1` crosses
/// from one to two lattice cells), and the trivial edges.
fn glv_boundary_scalars<C: CurveParams>(glv: &zkperf_ec::GlvParams<C>) -> Vec<C::Scalar> {
    let r = C::Scalar::modulus();
    let lambda = glv.lambda().clone();
    let half_bound = BigUint::one().shl(glv.half_bits());
    let mut raw = vec![
        BigUint::zero(),
        BigUint::one(),
        r.checked_sub(&BigUint::one()).expect("r > 1"),
        lambda.clone(),
        (&lambda + &BigUint::one()).rem(&r),
        lambda
            .checked_sub(&BigUint::one())
            .expect("lambda > 1")
            .rem(&r),
        half_bound.clone(),
    ];
    raw.push((&half_bound + &BigUint::one()).rem(&r));
    raw.push(half_bound.checked_sub(&BigUint::one()).expect("bound > 0"));
    raw.into_iter()
        .map(|x| C::Scalar::from_biguint(&x.rem(&r)))
        .collect()
}

fn glv_decompose_case<C: CurveParams>(rng: &mut SplitRng) -> CaseResult {
    let Some(glv) = C::glv_params() else {
        return fail("glv decompose", "no GLV parameters derived for this group");
    };
    let r = C::Scalar::modulus();
    let lambda = glv.lambda();
    let mut scalars = glv_boundary_scalars::<C>(glv);
    scalars.extend(adversarial_scalars::<C::Scalar>(rng, 24));
    for s in &scalars {
        let d = glv.decompose(s);
        // Identity: k1 + λ·k2 ≡ k (mod r).
        let k1 = signed_half_mod_r(&d.k1, &r);
        let k2 = signed_half_mod_r(&d.k2, &r);
        let recomposed = (&k1 + &(&k2 * lambda).rem(&r)).rem(&r);
        if recomposed != s.to_biguint() {
            return fail("glv decompose identity", format_args!("scalar {s}"));
        }
        // Both components must respect the advertised half-width bound.
        let bound = BigUint::one().shl(glv.half_bits());
        for (name, half) in [("k1", &d.k1), ("k2", &d.k2)] {
            if BigUint::from_limbs(&half.limbs) >= bound {
                return fail(
                    "glv decompose bound",
                    format_args!("{name} exceeds 2^{} for scalar {s}", glv.half_bits()),
                );
            }
        }
        // Odd: −s splits into the negated halves of s.
        let negated = glv.decompose(&-*s);
        if (negated.k1, negated.k2) != (d.k1.negated(), d.k2.negated()) {
            return fail("glv decompose oddness", format_args!("scalar {s}"));
        }
    }
    // A small negative scalar (−1 is the q_O of every PLONK multiplication
    // gate) is one short component, not two full-width ones.
    for s in [1, 2, rng.gen::<u64>() | 1, u64::MAX] {
        let d = glv.decompose(&-C::Scalar::from_u64(s));
        let expected = zkperf_ec::SignedHalf {
            limbs: [s, 0, 0],
            neg: true,
        };
        if (d.k1, d.k2) != (expected, zkperf_ec::SignedHalf::default()) {
            return fail("glv decompose of a small negative", format_args!("−{s}"));
        }
    }
    Ok(())
}

fn glv_msm_case<C: CurveParams>(rng: &mut SplitRng) -> CaseResult {
    let Some(glv) = C::glv_params() else {
        return fail("glv msm", "no GLV parameters derived for this group");
    };
    // Boundary scalars first so they always pair with real points, then
    // adversarial filler up to a size that clears the GLV MSM gate.
    let mut scalars = glv_boundary_scalars::<C>(glv);
    let n = scalars.len() + adversarial_len(rng, 48);
    scalars.extend(adversarial_scalars::<C::Scalar>(rng, n - scalars.len()));
    let bases: Vec<Affine<C>> = adversarial_points(rng, n);
    let fast = msm(&bases, &scalars);
    if fast != msm_naive(&bases, &scalars) {
        return fail("glv msm vs msm_naive", format_args!("n = {n}"));
    }
    if fast != msm_double_and_add(&bases, &scalars) {
        return fail("glv msm vs double_and_add", format_args!("n = {n}"));
    }
    Ok(())
}

fn glv_mul_windowed_case<C: CurveParams>(rng: &mut SplitRng) -> CaseResult {
    let Some(glv) = C::glv_params() else {
        return fail("glv mul_windowed", "no GLV parameters derived for this group");
    };
    let r = C::Scalar::modulus();
    let p = if rng.gen_bool(0.1) {
        Projective::<C>::identity()
    } else {
        Projective::<C>::random(rng)
    };
    // Canonical scalars take the GLV Straus route.
    let mut exps: Vec<BigUint> = glv_boundary_scalars::<C>(glv)
        .iter()
        .map(C::Scalar::to_biguint)
        .collect();
    exps.push(adversarial_field::<C::Scalar>(rng).to_biguint());
    // Out-of-range exponents (≥ r) must fall back to the generic window
    // loop and still agree with double-and-add.
    exps.push(r.clone());
    exps.push(&r + &BigUint::from_u64(rng.gen::<u64>()));
    for exp in &exps {
        if p.mul_windowed(exp) != p.mul_bigint(exp) {
            return fail("glv mul_windowed vs mul_bigint", format_args!("exp {exp}"));
        }
    }
    // The interleaved GLV reference pins the decomposition end-to-end.
    let s: C::Scalar = adversarial_field(rng);
    let reference = zkperf_ec::glv::mul_glv_reference(glv, &p, &s);
    if reference != p.mul_bigint(&s.to_biguint()) {
        return fail("glv reference mul", format_args!("scalar {s}"));
    }
    Ok(())
}

/// Runs [`scale_points`] over the batch `lanes` describes — lane `i` is
/// `pool[j]`, negated when flagged — and compares every lane with
/// double-and-add, field for field (so an identity result must be the
/// canonical [`Affine::identity`]), then the whole batch with the
/// per-point window loop it replaced. The double-and-add reference
/// multiplies each pool point once; the lanes only index it.
fn scale_points_batch<C: CurveParams>(
    pool: &[Affine<C>],
    lanes: &[(usize, bool)],
    k: &C::Scalar,
) -> CaseResult {
    let pick = |src: &[Affine<C>], &(j, negate): &(usize, bool)| {
        if negate && !src[j].infinity {
            src[j].neg()
        } else {
            src[j]
        }
    };
    let mut got: Vec<Affine<C>> = lanes.iter().map(|lane| pick(pool, lane)).collect();
    let mut per_point = got.clone();
    scale_points(&mut got, k);
    scale_points_reference(&mut per_point, k);
    if got != per_point {
        return fail(
            "scale_points vs scale_points_reference",
            format_args!("{} lanes, scalar {k}", lanes.len()),
        );
    }
    let exp = k.to_biguint();
    let scaled: Vec<Affine<C>> = pool
        .iter()
        .map(|p| p.to_projective().mul_bigint(&exp).to_affine())
        .collect();
    for (i, (fast, lane)) in got.iter().zip(lanes).enumerate() {
        if *fast != pick(&scaled, lane) {
            return fail(
                "scale_points vs mul_bigint",
                format_args!("lane {i} of {}, scalar {k}", lanes.len()),
            );
        }
    }
    Ok(())
}

fn scale_points_case<C: CurveParams>(rng: &mut SplitRng) -> CaseResult {
    // The lattice boundaries when the group decomposes (0, 1, λ±1, r−1,
    // the half-width bound), the field edges either way, and two draws.
    let mut scalars = C::glv_params().map_or_else(Vec::new, glv_boundary_scalars::<C>);
    scalars.extend(edge_fields::<C::Scalar>());
    scalars.push(adversarial_field(rng));
    scalars.push(C::Scalar::random(rng));

    // A small pool the lanes draw from: a finite point, the canonical
    // identity and one carrying stale coordinates, then the generator,
    // duplicates and negations.
    let finite = Projective::<C>::random(rng).to_affine();
    let stale = Affine {
        infinity: true,
        ..finite
    };
    let mut pool = vec![finite, Affine::identity(), stale];
    pool.extend(adversarial_points::<C>(rng, 12));

    // Every scalar over the lane mix a batch adder gets wrong first:
    // `P, P, −P` side by side between the two kinds of identity.
    let edge_lanes = [(2, false), (0, false), (0, false), (0, true), (1, true)];
    for k in &scalars {
        scale_points_batch(&pool, &edge_lanes, k)?;
    }

    // Lengths on both sides of the chunk boundary, one scalar each, with
    // the same `P, P, −P` run planted inside a chunk.
    for len in [0, 1, SCALE_CHUNK - 1, SCALE_CHUNK, SCALE_CHUNK + 1] {
        let mut lanes: Vec<(usize, bool)> = (0..len)
            .map(|_| (rng.gen_range(0..pool.len() as u64) as usize, rng.gen_bool(0.5)))
            .collect();
        if len >= 3 {
            let at = rng.gen_range(0..(len - 2) as u64) as usize;
            let j = lanes[at].0;
            lanes[at..at + 3].copy_from_slice(&[(j, false), (j, false), (j, true)]);
        }
        let k = scalars[rng.gen_range(0..scalars.len() as u64) as usize];
        scale_points_batch(&pool, &lanes, &k)?;
    }
    Ok(())
}

// -------------------------------------------------------------- pairing

/// One randomized case of the pairing oracle for a curve module: the
/// twisted engine against the untwisted reference (bit for bit, on a
/// drawn pair, the generators and identity inputs; the final
/// exponentiation also on a field element that is no Miller value),
/// bilinearity, non-degeneracy, identity and negated inputs, the
/// prepared-lines route, and the documented mismatched-length truncation.
macro_rules! pairing_case {
    ($name:ident, $module:path, $reference:path) => {
        fn $name(rng: &mut SplitRng) -> CaseResult {
            use $module as cv;
            use $reference as slow;
            use zkperf_ff::Field;
            type Fr = <cv::G1Params as CurveParams>::Scalar;

            let g1 = Projective::<cv::G1Params>::generator();
            let g2 = Projective::<cv::G2Params>::generator();
            let a: Fr = adversarial_field(rng);
            let b: Fr = adversarial_field(rng);
            let p = (g1 * a).to_affine();
            let q = (g2 * b).to_affine();
            let o1 = Affine::<cv::G1Params>::identity();
            let o2 = Affine::<cv::G2Params>::identity();

            // The twisted engine against the untwisted reference.
            let fast = cv::pairing(&p, &q);
            if fast != slow::pairing(&p, &q) {
                return fail("pairing fast vs reference", format_args!("a {a}, b {b}"));
            }
            for (pi, qi) in [(g1.to_affine(), g2.to_affine()), (o1, q), (p, o2)] {
                if cv::pairing(&pi, &qi) != slow::pairing(&pi, &qi) {
                    return fail("pairing fast vs reference", "generators or an identity");
                }
            }
            let f = cv::Gt::random(rng);
            let hard = slow::pairing_hard_exponent();
            if cv::final_exponentiation_fast(f)
                != crate::reference::pairing::final_exponentiation(f, &hard)
            {
                return fail("final exponentiation fast vs reference", format_args!("f {f:?}"));
            }

            // Bilinearity: e(cP, Q) = e(P, cQ) = e(P, Q)^c.
            let c: Fr = adversarial_field(rng);
            let expect = fast.pow(&c.to_biguint());
            if cv::pairing(&(p.to_projective() * c).to_affine(), &q) != expect {
                return fail("pairing bilinearity (G1 side)", format_args!("c {c}"));
            }
            if cv::pairing(&p, &(q.to_projective() * c).to_affine()) != expect {
                return fail("pairing bilinearity (G2 side)", format_args!("c {c}"));
            }

            // Non-degeneracy on the generators; identity inputs pair to 1.
            if cv::pairing(&g1.to_affine(), &g2.to_affine()).is_one() {
                return fail("pairing non-degeneracy", "e(G1, G2) = 1");
            }
            if !cv::pairing(&o1, &q).is_one() || !cv::pairing(&p, &o2).is_one() {
                return fail("pairing identity input", "e(O, Q) or e(P, O) != 1");
            }

            // A pair and its G1-negation cancel in one product.
            if !cv::multi_pairing(&[p, p.neg()], &[q, q]).is_one() {
                return fail("pairing negation", format_args!("a {a}, b {b}"));
            }

            // Multi-pairing against the product of individual pairings,
            // over adversarial points (identity / negated / duplicated).
            let n = adversarial_len(rng, 5).max(2);
            let ps: Vec<Affine<cv::G1Params>> = adversarial_points(rng, n);
            let qs: Vec<Affine<cv::G2Params>> = adversarial_points(rng, n);
            let combined = cv::multi_pairing(&ps, &qs);
            let mut product = cv::Gt::one();
            for (pi, qi) in ps.iter().zip(&qs) {
                product *= cv::pairing(pi, qi);
            }
            if combined != product {
                return fail("multi_pairing vs product", format_args!("n = {n}"));
            }

            // The prepared-lines route is the same function.
            let preps: Vec<_> = qs.iter().map(cv::prepare_g2).collect();
            let prep_refs: Vec<_> = preps.iter().collect();
            if cv::multi_pairing_prepared(&ps, &prep_refs) != combined {
                return fail("multi_pairing_prepared", format_args!("n = {n}"));
            }

            // Mismatched slice lengths: documented truncation to the
            // shorter side, from either direction.
            let short = cv::multi_pairing(&ps[..n - 1], &qs[..n - 1]);
            if cv::multi_pairing(&ps[..n - 1], &qs) != short {
                return fail("multi_pairing truncation (short G1)", format_args!("n = {n}"));
            }
            if cv::multi_pairing(&ps, &qs[..n - 1]) != short {
                return fail("multi_pairing truncation (short G2)", format_args!("n = {n}"));
            }
            Ok(())
        }
    };
}

pairing_case!(pairing_bn254_case, zkperf_ec::bn254, crate::reference::pairing::bn254);
pairing_case!(pairing_bls12_381_case, zkperf_ec::bls12_381, crate::reference::pairing::bls12_381);

// ------------------------------------------------------------------ NTT

fn ntt_case<F: PrimeField>(rng: &mut SplitRng) -> CaseResult {
    let size = adversarial_domain_order(rng, 8);
    let Some(domain) = Radix2Domain::<F>::new(size) else {
        return fail("ntt", format_args!("no domain of size {size}"));
    };
    if domain.size() != size {
        return fail("ntt", format_args!("domain of {} points for {size}", domain.size()));
    }
    let coeffs: Vec<F> = adversarial_scalars(rng, domain.size());
    let x = F::random(rng);
    let reference = DomainReference::new(&domain, coeffs);
    reference.check(&domain, x)
}

/// The O(n²) answers a domain's transforms must reproduce on one input,
/// computed once so they can be compared at several thread counts.
struct DomainReference<F> {
    coeffs: Vec<F>,
    evals: Vec<F>,
    coset_evals: Vec<F>,
}

impl<F: PrimeField> DomainReference<F> {
    fn new(domain: &Radix2Domain<F>, coeffs: Vec<F>) -> Self {
        let evals = dft_reference(domain, &coeffs);
        let coset_evals = coset_dft_reference(domain, &coeffs);
        DomainReference { coeffs, evals, coset_evals }
    }

    /// Forward, inverse, coset forward and coset inverse transforms,
    /// `element`, `eval_vanishing` at `x` and at the coset shift, and
    /// `lagrange_coefficients_at(x)`.
    fn check(&self, domain: &Radix2Domain<F>, x: F) -> CaseResult {
        let size = domain.size();
        let mut evals = self.coeffs.clone();
        domain.fft_in_place(&mut evals);
        if evals != self.evals {
            return fail("ntt forward vs dft", format_args!("size {size}"));
        }
        let mut coeffs = self.evals.clone();
        domain.ifft_in_place(&mut coeffs);
        if coeffs != self.coeffs {
            return fail("ntt inverse of the dft", format_args!("size {size}"));
        }
        let mut coset = self.coeffs.clone();
        domain.coset_fft_in_place(&mut coset);
        if coset != self.coset_evals {
            return fail("coset ntt vs dft", format_args!("size {size}"));
        }
        let mut coset_coeffs = self.coset_evals.clone();
        domain.coset_ifft_in_place(&mut coset_coeffs);
        if coset_coeffs != self.coeffs {
            return fail("coset inverse of the shifted dft", format_args!("size {size}"));
        }
        // element(i) — served from the cached twiddle table — against an
        // independent ω power run.
        let mut w = F::one();
        for i in 0..size {
            if domain.element(i) != w {
                return fail("domain element", format_args!("i = {i}, size {size}"));
            }
            w *= domain.group_gen();
        }
        if !w.is_one() {
            return fail("domain generator", format_args!("ω^n ≠ 1, size {size}"));
        }
        let n = BigUint::from_u64(size as u64);
        for at in [x, domain.coset_shift(), domain.element(size / 2)] {
            if domain.eval_vanishing(at) != at.pow(&n) - F::one() {
                return fail("eval_vanishing", format_args!("size {size}"));
            }
        }
        // Σ Lᵢ(x)·p(ωⁱ) = p(x) for the p the DFT evaluated.
        let lag = domain.lagrange_coefficients_at(x);
        let via_lagrange: F = lag.iter().zip(&self.evals).map(|(l, e)| *l * *e).sum();
        if via_lagrange != horner(&self.coeffs, x) {
            return fail("lagrange_coefficients_at", format_args!("size {size}"));
        }
        Ok(())
    }
}

/// Every domain of order `2^k` and `3·2^k` for `k = 0..=12`, against
/// [`dft_reference`] and its coset twin at 1, 2 and 4 threads: forward,
/// inverse and coset transforms, `element`, `eval_vanishing` and
/// `lagrange_coefficients_at`. Too slow for a fuzz case (the references
/// are O(n²) up to 12 288 points); run as a test per field.
///
/// # Errors
///
/// The first divergence, with the size and thread count.
pub fn domain_orders_sweep<F: PrimeField>(seed: u64) -> CaseResult {
    let _guard = ThreadGuard;
    let mut rng = SplitRng::from_seed(seed);
    for k in 0..=12u32 {
        for size in [1usize << k, 3 << k] {
            let Some(domain) = Radix2Domain::<F>::new(size).filter(|d| d.size() == size) else {
                return fail("domain orders", format_args!("no domain of order {size}"));
            };
            let reference = DomainReference::new(&domain, adversarial_scalars(&mut rng, size));
            let x = F::random(&mut rng);
            for threads in [1usize, 2, 4] {
                pool::set_threads(threads);
                reference
                    .check(&domain, x)
                    .map_err(|e| format!("{e} at {threads} threads"))?;
            }
        }
    }
    Ok(())
}

fn lagrange_case<F: PrimeField>(rng: &mut SplitRng) -> CaseResult {
    let size = adversarial_domain_order(rng, 6);
    let Some(domain) = Radix2Domain::<F>::new(size) else {
        return fail("lagrange", format_args!("no domain of size {size}"));
    };
    let evals: Vec<F> = adversarial_scalars(rng, domain.size());
    // At a random point: Σ Lᵢ(x)·evalsᵢ must equal the interpolated
    // polynomial evaluated there (IFFT + Horner reference).
    let x: F = if rng.gen_bool(0.25) {
        // In-domain x exercises the indicator special case.
        domain.element(rng.gen_range(0..domain.size() as u64) as usize)
    } else {
        F::random(rng)
    };
    let lag = domain.lagrange_coefficients_at(x);
    let via_lagrange: F = lag.iter().zip(&evals).map(|(l, e)| *l * *e).sum();
    let mut coeffs = evals.clone();
    domain.ifft_in_place(&mut coeffs);
    if via_lagrange != horner(&coeffs, x) {
        return fail("lagrange_coefficients_at", format_args!("size {size}"));
    }
    Ok(())
}

// -------------------------------------------------------------- threads

/// Restores the pool to one thread even when the comparison fails.
struct ThreadGuard;
impl Drop for ThreadGuard {
    fn drop(&mut self) {
        pool::set_threads(1);
    }
}

fn threads_msm_case<C: CurveParams>(rng: &mut SplitRng) -> CaseResult {
    let _guard = ThreadGuard;
    // Past the parallel gate (1 << 10), with an odd tail.
    let n = (1 << 10) + 1 + rng.gen_range(0..200) as usize;
    let bases: Vec<Affine<C>> = adversarial_points(rng, n);
    let scalars: Vec<C::Scalar> = adversarial_scalars(rng, n);
    pool::set_threads(1);
    let serial = msm(&bases, &scalars).to_affine();
    for threads in [2usize, 4] {
        pool::set_threads(threads);
        let par = msm(&bases, &scalars).to_affine();
        if par != serial {
            return fail("threads msm", format_args!("{threads} threads, n = {n}"));
        }
    }
    Ok(())
}

fn threads_ntt_case<F: PrimeField>(rng: &mut SplitRng) -> CaseResult {
    let _guard = ThreadGuard;
    // At the parallel gate (2^12).
    let Some(domain) = Radix2Domain::<F>::new(1 << 12) else {
        return fail("threads ntt", "no 2^12 domain");
    };
    let coeffs: Vec<F> = adversarial_scalars(rng, domain.size());
    pool::set_threads(1);
    let mut serial = coeffs.clone();
    domain.coset_fft_in_place(&mut serial);
    domain.ifft_in_place(&mut serial);
    for threads in [2usize, 4] {
        pool::set_threads(threads);
        let mut par = coeffs.clone();
        domain.coset_fft_in_place(&mut par);
        domain.ifft_in_place(&mut par);
        if par != serial {
            return fail("threads ntt", format_args!("{threads} threads"));
        }
    }
    Ok(())
}

fn threads_fixed_base_case<C: CurveParams>(rng: &mut SplitRng) -> CaseResult {
    let _guard = ThreadGuard;
    // Past the one-chunk gate (2048 scalars per chunk), with a ragged tail.
    let n = 2048 + 1 + rng.gen_range(0..300) as usize;
    let base = Projective::<C>::random(rng);
    let table = FixedBaseTable::<C>::for_batch(&base, n);
    let scalars: Vec<C::Scalar> = adversarial_scalars(rng, n);
    pool::set_threads(1);
    let serial = table.mul_batch(&scalars);
    pool::set_threads(4);
    let parallel = table.mul_batch(&scalars);
    if serial != parallel {
        return fail("threads fixed_base", format_args!("n = {n}"));
    }
    Ok(())
}

fn threads_groth16_case<E: Engine>(rng: &mut SplitRng) -> CaseResult {
    let _guard = ThreadGuard;
    let (circuit, witness) = adversarial_circuit::<E::Fr>(rng);
    let proof_at = |threads: usize, rng: &SplitRng| {
        pool::set_threads(threads);
        // Clone the RNG so both legs see the identical randomness stream
        // for setup *and* prove: any output difference is then a real
        // thread-count divergence, not sampling noise.
        let mut local = rng.clone();
        let pk = zkperf_groth16::setup::<E, _>(circuit.r1cs(), &mut local)
            .map_err(|e| format!("setup failed: {e}"))?;
        let proof = zkperf_groth16::prove::<E, _>(&pk, circuit.r1cs(), &witness, &mut local)
            .map_err(|e| format!("prove failed: {e}"))?;
        Ok::<_, String>((pk, proof))
    };
    let (pk1, serial) = proof_at(1, rng)?;
    let (pk4, parallel) = proof_at(4, rng)?;
    if pk1.vk != pk4.vk {
        return fail("threads groth16", "verifying keys diverge across thread counts");
    }
    if serial != parallel {
        return fail("threads groth16", "proofs diverge across thread counts");
    }
    pool::set_threads(1);
    match zkperf_groth16::verify::<E>(&pk1.vk, &serial, witness.public()) {
        Ok(true) => Ok(()),
        other => fail("threads groth16", format_args!("valid proof rejected: {other:?}")),
    }
}

// ------------------------------------------------------------ protocols

fn groth16_roundtrip_case<E: Engine>(rng: &mut SplitRng) -> CaseResult {
    let (circuit, witness) = adversarial_circuit::<E::Fr>(rng);
    let pk = zkperf_groth16::setup::<E, _>(circuit.r1cs(), rng)
        .map_err(|e| format!("setup failed: {e}"))?;
    let proof = zkperf_groth16::prove::<E, _>(&pk, circuit.r1cs(), &witness, rng)
        .map_err(|e| format!("prove failed: {e}"))?;
    match zkperf_groth16::verify::<E>(&pk.vk, &proof, witness.public()) {
        Ok(true) => Ok(()),
        other => fail(
            "groth16 roundtrip",
            format_args!("valid proof rejected: {other:?} ({})", circuit.name()),
        ),
    }
}

/// β, γ, α, ζ, ν as the PLONK transcript yields them for `proof`.
pub(crate) fn plonk_challenges<E: Engine>(
    vk: &zkperf_plonk::PlonkVerifyingKey<E>,
    public: &[E::Fr],
    proof: &zkperf_plonk::PlonkProof<E>,
) -> [E::Fr; 5]
where
    <E::G1 as CurveParams>::Base: PrimeField,
{
    let mut t = zkperf_plonk::Transcript::<E::Fr>::new(0x504c_4f4e);
    t.absorb(E::Fr::from_u64(vk.n as u64));
    for c in vk.q_commits.iter().chain(&vk.sigma_commits) {
        t.absorb_point(&c.0);
    }
    for v in public {
        t.absorb(*v);
    }
    for c in &proof.wire_commits {
        t.absorb_point(&c.0);
    }
    let (beta, gamma) = (t.challenge(), t.challenge());
    t.absorb_point(&proof.z_commit.0);
    let alpha = t.challenge();
    for c in &proof.t_commits {
        t.absorb_point(&c.0);
    }
    let zeta = t.challenge();
    for v in &proof.evals {
        t.absorb(*v);
    }
    [beta, gamma, alpha, zeta, t.challenge()]
}

/// The permutation accumulator over the domain, one field inversion per
/// row: `z₀ = 1`, `zᵢ₊₁ = zᵢ·Π(w + β·k·ωⁱ + γ)/Π(w + β·σ + γ)`.
pub(crate) fn plonk_accumulator<F: PrimeField>(
    plonk: &zkperf_plonk::PlonkCircuit<F>,
    domain: &Radix2Domain<F>,
    cols: &[Vec<F>; 3],
    beta: F,
    gamma: F,
) -> Result<Vec<F>, String> {
    let mut z = Vec::with_capacity(plonk.n);
    let mut acc = F::one();
    for i in 0..plonk.n {
        z.push(acc);
        let x = domain.element(i);
        let (mut num, mut den) = (F::one(), F::one());
        for ((col, sigma), &k) in cols.iter().zip(&plonk.sigma).zip(&plonk.coset_ks) {
            num *= col[i] + beta * k * x + gamma;
            den *= col[i] + beta * sigma[i] + gamma;
        }
        acc *= num * den.inverse().ok_or("zero permutation factor")?;
    }
    Ok(z)
}

/// End-to-end accept, then everything a proof carries recomputed from the
/// raw columns and the Lagrange basis alone: `ā, b̄, c̄, s̄σ1, s̄σ2` at ζ, `z̄ω`
/// from an accumulator rebuilt row by row, the constant term `r₀` of the
/// linearisation from those, and the two KZG openings checked one at a
/// time against `[r − r₀] + ν[a] + … + ν⁵[S_σ2]` assembled by double-and-add
/// — no batching scalar, no MSM, none of the prover's tables.
fn plonk_roundtrip_case<E: Engine>(rng: &mut SplitRng) -> CaseResult
where
    <E::G1 as CurveParams>::Base: PrimeField,
{
    let (mut circuit, mut witness) = adversarial_circuit::<E::Fr>(rng);
    if rng.gen_bool(0.25) {
        // 4n = 2^11 quotient rows: more than one pool chunk.
        circuit = zkperf_circuit::library::exponentiate(250 + rng.gen_range(0..250) as usize);
        witness = circuit
            .generate_witness(&[E::Fr::from_u64(3)], &[])
            .map_err(|e| format!("witness failed: {e}"))?;
    }
    let pk = zkperf_plonk::plonk_setup::<E, _>(circuit.r1cs(), rng)
        .map_err(|e| format!("setup failed: {e}"))?;
    let proof =
        zkperf_plonk::plonk_prove(&pk, witness.full()).map_err(|e| format!("prove failed: {e}"))?;
    let vk = pk.vk();
    if !zkperf_plonk::plonk_verify(vk, &proof, witness.public()) {
        return fail(
            "plonk roundtrip",
            format_args!("valid proof rejected ({})", circuit.name()),
        );
    }
    let plonk = zkperf_plonk::PlonkCircuit::from_r1cs(circuit.r1cs())
        .map_err(|e| format!("arithmetize failed: {e}"))?;
    let [beta, gamma, alpha, zeta, nu] = plonk_challenges(vk, witness.public(), &proof);

    let domain = Radix2Domain::<E::Fr>::new(plonk.n).ok_or("no domain")?;
    let zeta_omega = zeta * domain.group_gen();
    let lagrange = domain.lagrange_coefficients_at(zeta);
    let combine = |evals: &[E::Fr], basis: &[E::Fr]| -> E::Fr {
        evals.iter().zip(basis).fold(E::Fr::zero(), |acc, (&e, &l)| acc + e * l)
    };
    let cols = plonk.wire_columns(witness.full());
    let z = plonk_accumulator(&plonk, &domain, &cols, beta, gamma)?;
    let expected = [
        combine(&cols[0], &lagrange),
        combine(&cols[1], &lagrange),
        combine(&cols[2], &lagrange),
        combine(&plonk.sigma[0], &lagrange),
        combine(&plonk.sigma[1], &lagrange),
        combine(&z, &domain.lagrange_coefficients_at(zeta_omega)),
    ];
    if proof.evals != expected {
        return fail(
            "plonk evaluations",
            format_args!("differ from the Lagrange-basis values ({})", circuit.name()),
        );
    }

    let [a, b, c, s1, s2, z_omega] = expected;
    let [k0, k1, k2] = plonk.coset_ks;
    let pi = plonk
        .public_rows
        .iter()
        .zip(witness.public())
        .fold(E::Fr::zero(), |acc, (&row, &v)| acc - v * lagrange[row]);
    let l1 = lagrange[0];
    let sigma_product = (a + beta * s1 + gamma) * (b + beta * s2 + gamma) * z_omega;
    let r0 = pi - alpha.square() * l1 - alpha * sigma_product * (c + gamma);
    let identity_product = (a + beta * k0 * zeta + gamma)
        * (b + beta * k1 * zeta + gamma)
        * (c + beta * k2 * zeta + gamma);
    let zh = domain.eval_vanishing(zeta);
    let zeta_n = zh + E::Fr::one();
    let term = |commit: &zkperf_plonk::Commitment<E>, scalar: E::Fr| {
        commit.0.to_projective().mul_bigint(&scalar.to_biguint())
    };
    let [ql, qr, qo, qm, qc] = &vk.q_commits;
    let [t_lo, t_mid, t_hi] = &proof.t_commits;
    let mut nus = [nu; 5]; // ν, ν², …, ν⁵
    for i in 1..5 {
        nus[i] = nus[i - 1] * nu;
    }
    let t_at_zeta =
        term(t_lo, E::Fr::one()) + term(t_mid, zeta_n) + term(t_hi, zeta_n.square());
    let batch = term(qm, a * b)
        + term(ql, a)
        + term(qr, b)
        + term(qo, c)
        + term(qc, E::Fr::one())
        + term(&proof.z_commit, alpha * identity_product + alpha.square() * l1)
        + term(&vk.sigma_commits[2], -(alpha * beta * sigma_product))
        + t_at_zeta.mul_bigint(&(-zh).to_biguint())
        + term(&proof.wire_commits[0], nus[0])
        + term(&proof.wire_commits[1], nus[1])
        + term(&proof.wire_commits[2], nus[2])
        + term(&vk.sigma_commits[0], nus[3])
        + term(&vk.sigma_commits[1], nus[4]);
    let value = nus[0] * a + nus[1] * b + nus[2] * c + nus[3] * s1 + nus[4] * s2 - r0;
    let batch = zkperf_plonk::Commitment::<E>(batch.to_affine());
    if !vk.srs.verify_opening(&batch, zeta, value, &proof.w_zeta) {
        return fail(
            "plonk linearisation",
            format_args!("W_ζ does not open [r − r₀] + ν-batch to −r₀ + ν-batch ({})", circuit.name()),
        );
    }
    if !vk.srs.verify_opening(&proof.z_commit, zeta_omega, z_omega, &proof.w_zeta_omega) {
        return fail(
            "plonk accumulator opening",
            format_args!("W_ζω does not open [z] to z̄ω at ζω ({})", circuit.name()),
        );
    }
    Ok(())
}

// ------------------------------------------------------------- streaming

/// Restores the ambient memory budget on drop, so a budgeted case can't
/// leak its budget into the rest of the sweep.
struct BudgetGuard(Option<u64>);

impl BudgetGuard {
    fn set(bytes: Option<u64>) -> BudgetGuard {
        let prev = pool::mem::budget();
        pool::mem::set_budget(bytes);
        BudgetGuard(prev)
    }
}

impl Drop for BudgetGuard {
    fn drop(&mut self) {
        pool::mem::set_budget(self.0);
    }
}

fn stream_msm_case<C: CurveParams>(rng: &mut SplitRng) -> CaseResult {
    let n = adversarial_len(rng, 300).max(3);
    let bases: Vec<Affine<C>> = adversarial_points(rng, n);
    let scalars: Vec<C::Scalar> = adversarial_scalars(rng, n);
    // `msm` is the one-chunk call of `msm_stream`, so the expected value
    // comes from the double-and-add reference.
    let expect = msm_naive(&bases, &scalars);
    // Degenerate (1), prime-stride (13), and boundary-straddling chunk
    // layouts; n+7 and usize::MAX exercise a final chunk larger than the
    // tail.
    for chunk in [1usize, 13, n - 1, n, n + 7, usize::MAX] {
        let got = msm_stream(
            n,
            bases.chunks(chunk).map(Ok::<_, std::convert::Infallible>),
            &scalars,
        )
        .unwrap_or_else(|e| match e {});
        if got != expect {
            return fail("msm_stream", format_args!("chunk = {chunk}, n = {n}"));
        }
    }
    Ok(())
}

fn stream_budget_groth16_case<E: Engine>(rng: &mut SplitRng) -> CaseResult {
    let (circuit, witness) = adversarial_circuit::<E::Fr>(rng);
    let run = |budget: Option<u64>, rng: &SplitRng| {
        let _b = BudgetGuard::set(budget);
        // Clone the RNG so both legs see the identical randomness stream;
        // any divergence is then a real budget-path difference.
        let mut local = rng.clone();
        let pk = zkperf_groth16::setup::<E, _>(circuit.r1cs(), &mut local)
            .map_err(|e| format!("setup failed: {e}"))?;
        let proof = zkperf_groth16::prove::<E, _>(&pk, circuit.r1cs(), &witness, &mut local)
            .map_err(|e| format!("prove failed: {e}"))?;
        Ok::<_, String>((pk, proof))
    };
    let (ref_pk, ref_proof) = run(None, rng)?;
    // A budget this small forces the chunked path on every query.
    let (pk, proof) = run(Some(1 << 16), rng)?;
    if pk != ref_pk {
        return fail("stream budget groth16", "budgeted setup key diverges from the unbudgeted one");
    }
    if proof != ref_proof {
        return fail("stream budget groth16", "budgeted proof diverges from the unbudgeted one");
    }
    Ok(())
}

fn stream_threads_case<E: Engine>(rng: &mut SplitRng) -> CaseResult {
    let _guard = ThreadGuard;
    let _b = BudgetGuard::set(Some(1 << 16));
    let (circuit, witness) = adversarial_circuit::<E::Fr>(rng);
    let chunk = 1 + rng.gen_range(0..50) as usize;
    let mut sink = zkperf_groth16::MemorySink::<E>::new();
    let mut setup_rng = rng.clone();
    zkperf_groth16::setup_streamed::<E, _, _>(circuit.r1cs(), &mut setup_rng, chunk, &mut sink)
        .map_err(|e| format!("setup_streamed failed: {e}"))?;
    let pk = sink
        .into_proving_key()
        .ok_or_else(|| "setup_streamed left the sink incomplete".to_string())?;
    let src = zkperf_groth16::ChunkedKey::new(&pk, chunk);
    let proof_at = |threads: usize, rng: &SplitRng| {
        pool::set_threads(threads);
        let mut local = rng.clone();
        zkperf_groth16::prove_streamed::<E, _, _>(&src, circuit.r1cs(), &witness, &mut local)
            .map_err(|e| format!("prove_streamed failed: {e}"))
    };
    let serial = proof_at(1, rng)?;
    for threads in [2usize, 4] {
        let par = proof_at(threads, rng)?;
        if par != serial {
            return fail(
                "stream threads",
                format_args!("{threads} threads, chunk = {chunk}"),
            );
        }
    }
    Ok(())
}

fn stream_file_roundtrip_case<E: Engine>(rng: &mut SplitRng) -> CaseResult
where
    <E::G1 as CurveParams>::Base: zkperf_io::FieldCodec,
    <E::G2 as CurveParams>::Base: zkperf_io::FieldCodec,
{
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);

    let (circuit, witness) = adversarial_circuit::<E::Fr>(rng);
    let chunk = 1 + rng.gen_range(0..40) as usize;
    // Resident (one chunk per query) run under the identical randomness
    // stream.
    let mut ref_rng = rng.clone();
    let ref_pk = zkperf_groth16::setup::<E, _>(circuit.r1cs(), &mut ref_rng)
        .map_err(|e| format!("setup failed: {e}"))?;
    let ref_proof = zkperf_groth16::prove::<E, _>(&ref_pk, circuit.r1cs(), &witness, &mut ref_rng)
        .map_err(|e| format!("prove failed: {e}"))?;
    // Streamed to disk and proved back off the file.
    let path = std::env::temp_dir().join(format!(
        "zkperf_fuzz_{}_{}.zks",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let mut local = rng.clone();
    let streamed = (|| {
        let mut writer = zkperf_io::StreamedZkeyWriter::<E>::create(&path)
            .map_err(|e| format!("writer create failed: {e}"))?;
        let vk =
            zkperf_groth16::setup_streamed::<E, _, _>(circuit.r1cs(), &mut local, chunk, &mut writer)
                .map_err(|e| format!("setup_streamed failed: {e}"))?;
        let reader = zkperf_io::StreamedZkeyReader::<E>::open(&path)
            .map_err(|e| format!("reader open failed: {e}"))?;
        let proof =
            zkperf_groth16::prove_streamed::<E, _, _>(&reader, circuit.r1cs(), &witness, &mut local)
                .map_err(|e| format!("prove_streamed failed: {e}"))?;
        Ok::<_, String>((vk, proof))
    })();
    let _ = std::fs::remove_file(&path);
    let (vk, proof) = streamed?;
    if vk != ref_pk.vk {
        return fail(
            "stream file roundtrip",
            format_args!("vk diverges from resident setup (chunk = {chunk})"),
        );
    }
    if proof != ref_proof {
        return fail(
            "stream file roundtrip",
            format_args!("proof off the streamed file diverges (chunk = {chunk})"),
        );
    }
    Ok(())
}

// ---------------------------------------------------------------- zkey

/// A `.zkey` file's section records as `(header offset, payload length)`,
/// walked from the 12-byte preamble.
fn zkey_sections(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut sections = Vec::new();
    let mut at = 12;
    while let Some(len) = bytes.get(at + 4..at + 12) {
        let len = u64::from_le_bytes(len.try_into().unwrap_or_default()) as usize;
        sections.push((at, len));
        at = at.saturating_add(16).saturating_add(len);
    }
    sections
}

/// Re-seals the checksum of the section whose header is at `at`, so an
/// edit of its payload reaches the decoder instead of the CRC check.
fn zkey_reseal(bytes: &mut [u8], at: usize, len: usize) {
    let crc = zkperf_io::crc32(&bytes[at + 16..at + 16 + len]);
    bytes[at + 12..at + 16].copy_from_slice(&crc.to_le_bytes());
}

fn below(rng: &mut SplitRng, n: usize) -> usize {
    rng.gen_range(0..n as u64) as usize
}

fn pick(rng: &mut SplitRng, choices: &[u64]) -> u64 {
    choices[below(rng, choices.len())]
}

/// One seeded mutation of a valid `.zkey`, named by its class.
fn mutate_zkey(rng: &mut SplitRng, valid: &[u8]) -> (&'static str, Vec<u8>) {
    let mut bytes = valid.to_vec();
    let sections = zkey_sections(valid);
    let (at, len) = sections[below(rng, sections.len())];
    let word = |at: usize| u64::from_le_bytes(valid[at..at + 8].try_into().unwrap_or_default());
    let id = |at: usize| u32::from_le_bytes(valid[at..at + 4].try_into().unwrap_or_default());
    let class = match below(rng, 9) {
        0 => {
            let bit = below(rng, bytes.len() * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
            "bit flip"
        }
        1 => {
            bytes.truncate(below(rng, bytes.len()));
            "truncation"
        }
        2 => {
            let n = sections.len() as u64;
            let random = rng.gen::<u32>().into();
            let count = pick(rng, &[0, n - 1, n + 1, u32::MAX.into(), random]);
            bytes[8..12].copy_from_slice(&(count as u32).to_le_bytes());
            "section count"
        }
        3 => {
            let l = len as u64;
            let random = rng.gen();
            let edited = pick(
                rng,
                &[0, l.saturating_sub(1), l + 1, 1 << 32, u64::MAX, random],
            );
            bytes[at + 4..at + 12].copy_from_slice(&edited.to_le_bytes());
            "section length"
        }
        4 => {
            let other = sections[below(rng, sections.len())].0;
            let random = rng.gen::<u32>().into();
            let edited = pick(rng, &[id(other).into(), (id(at) ^ 1).into(), random]);
            bytes[at..at + 4].copy_from_slice(&(edited as u32).to_le_bytes());
            "section id"
        }
        5 => {
            bytes[at + 12 + below(rng, 4)] ^= 1 << below(rng, 8);
            "stored checksum"
        }
        6 | 7 => {
            // The header payload: wires, public wires, domain, chunk size.
            let field = 28 + 8 * if rng.gen_bool(0.5) { 3 } else { below(rng, 3) };
            let old = word(field);
            let random = rng.gen();
            let edited = pick(
                rng,
                &[
                    0,
                    1,
                    old.wrapping_sub(1),
                    old.wrapping_add(1),
                    old.wrapping_mul(2),
                    u64::MAX,
                    random,
                ],
            );
            bytes[field..field + 8].copy_from_slice(&edited.to_le_bytes());
            zkey_reseal(&mut bytes, 12, 32);
            if field == 52 {
                "header chunk size"
            } else {
                "header wire counts"
            }
        }
        _ => {
            bytes[at + 16 + below(rng, len)] ^= 1 << below(rng, 8);
            zkey_reseal(&mut bytes, at, len);
            "resealed payload"
        }
    };
    (class, bytes)
}

/// The one key decoder under seeded mutation: a valid key (chunk size 1,
/// 13 or one chunk per query) is mutated once and decoded. Every input
/// must give a typed [`zkperf_io::FormatError`] or a key that re-encodes
/// to the identical bytes at the header's own chunk size — never a panic.
fn zkey_decode_case<E: Engine>(rng: &mut SplitRng) -> CaseResult
where
    <E::G1 as CurveParams>::Base: zkperf_io::FieldCodec,
    <E::G2 as CurveParams>::Base: zkperf_io::FieldCodec,
{
    let (circuit, _) = adversarial_circuit::<E::Fr>(rng);
    let pk = zkperf_groth16::setup::<E, _>(circuit.r1cs(), rng)
        .map_err(|e| format!("setup failed: {e}"))?;
    let chunk = [1, 13, usize::MAX][below(rng, 3)];
    let encode = |pk: &zkperf_groth16::ProvingKey<E>, chunk| {
        let mut bytes = Vec::new();
        zkperf_io::write_zkey_chunks::<E>(&mut bytes, &zkperf_groth16::ChunkedKey::new(pk, chunk))
            .map(|()| bytes)
            .map_err(|e| format!("encode failed: {e}"))
    };
    let (class, bytes) = mutate_zkey(rng, &encode(&pk, chunk)?);
    let decoded = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        zkperf_io::read_zkey::<E>(&mut bytes.as_slice())
    }));
    let key = match decoded {
        Err(_) => {
            return fail(
                "zkey decode",
                format_args!("{class} panicked (chunk {chunk})"),
            )
        }
        Ok(Err(_typed)) => return Ok(()),
        Ok(Ok(key)) => key,
    };
    // An accepted header is the first section; its fourth word is the
    // chunk size.
    let own = bytes
        .get(52..60)
        .and_then(|w| w.try_into().ok())
        .map(|w| u64::from_le_bytes(w) as usize)
        .ok_or("accepted a key without a header")?;
    if encode(&key, own)? != bytes {
        return fail(
            "zkey decode",
            format_args!("{class} was accepted but does not re-encode to itself (chunk {chunk})"),
        );
    }
    Ok(())
}

// --------------------------------------------------------------- stark

/// One Goldilocks word for the hash kernel: the words at which its
/// 64-bit carries, borrows and the three-product sum turn over, else
/// [`adversarial_field`].
fn poseidon_edge_word(rng: &mut SplitRng) -> Goldilocks {
    use zkperf_ff::goldilocks::MODULUS;
    // p − 1 and its neighbours make every product in a dot product
    // maximal, so the 128-bit sum of three overflows twice.
    const WORDS: [u64; 9] = [
        0,
        1,
        (1 << 32) - 1,
        1 << 32,
        1 << 63,
        MODULUS - 1,
        MODULUS - 2,
        MODULUS - (1 << 32),
        MODULUS >> 1,
    ];
    if rng.gen_bool(0.5) {
        Goldilocks::from_u64(WORDS[rng.gen_range(0..WORDS.len() as u64) as usize])
    } else {
        adversarial_field(rng)
    }
}

/// The Goldilocks hash kernel against the generic permutation it
/// re-implements: whole states through the one-lane entry, four different
/// pairs per four-lane call, and one pair in all four lanes.
fn stark_poseidon_kernel_case(rng: &mut SplitRng) -> CaseResult {
    use zkperf_circuit::poseidon::{poseidon_hash2, poseidon_permute};
    use zkperf_stark::poseidon::{hash2, hash2_x4, permute};
    type F = Goldilocks;
    for _ in 0..32 {
        let state: [F; 3] = std::array::from_fn(|_| poseidon_edge_word(rng));
        if permute(state) != poseidon_permute(state) {
            return fail("stark poseidon kernel permute", format_args!("state {state:?}"));
        }
        let l: [F; 4] = std::array::from_fn(|_| poseidon_edge_word(rng));
        let r: [F; 4] = std::array::from_fn(|_| poseidon_edge_word(rng));
        let got = hash2_x4(l, r);
        for lane in 0..4 {
            let want = poseidon_hash2(l[lane], r[lane]);
            if got[lane] != want || hash2(l[lane], r[lane]) != want {
                return fail(
                    "stark poseidon kernel hash2_x4",
                    format_args!("lane {lane} of l = {l:?}, r = {r:?}"),
                );
            }
        }
        let want = poseidon_hash2(l[0], r[0]);
        if hash2_x4([l[0]; 4], [r[0]; 4]) != [want; 4] {
            return fail(
                "stark poseidon kernel hash2_x4, one pair in four lanes",
                format_args!("l = {:?}, r = {:?}", l[0], r[0]),
            );
        }
    }
    Ok(())
}

/// The transparent backend's commitment layer against a shared-nothing
/// reference: row digests re-derived by an explicit sponge fold over the
/// generic `poseidon_hash2`, the root by recursive halving, every opening
/// re-verified and tampered openings refused.
///
/// The tree builder hashes four rows and four sibling pairs at a time, so
/// a case walks every leaf count 1, 2, 4, … past the pool grain (the
/// levels of 1 and 2 nodes and short chunks take the one-lane tail) with a
/// row width from 0–5, in one tree in four drawn per row (unequal widths in
/// a group of four take the one-chain fallback).
fn stark_merkle_case(rng: &mut SplitRng) -> CaseResult {
    use zkperf_ff::Field;
    type F = Goldilocks;
    for log in 0..=7 {
        let leaves = 1usize << log;
        let ragged = rng.gen_bool(0.25);
        let width = rng.gen_range(0..6) as usize;
        let rows: Vec<Vec<F>> = (0..leaves)
            .map(|_| {
                let w = if ragged { rng.gen_range(0..6) as usize } else { width };
                adversarial_scalars(rng, w)
            })
            .collect();
        let shape = format_args!("{leaves} leaves, width {width}, ragged {ragged}").to_string();
        let tree = MerkleTree::from_rows(leaves, |i| rows[i].clone());
        let digests: Vec<F> = rows.iter().map(|r| merkle_row_digest_reference(r)).collect();
        for (i, row) in rows.iter().enumerate() {
            if hash_row(row) != digests[i] {
                return fail("stark merkle row digest", format_args!("row {i}; {shape}"));
            }
        }
        if tree.root() != merkle_root_reference(&digests) {
            return fail("stark merkle root vs recursive reference", shape);
        }
        if MerkleTree::from_leaf_digests(digests.clone()).root() != tree.root() {
            return fail("stark merkle from_leaf_digests vs from_rows", shape);
        }
        for (i, digest) in digests.iter().enumerate() {
            let path = tree.open(i);
            if !verify_path(tree.root(), i, *digest, &path) {
                return fail("stark merkle open", format_args!("leaf {i}; {shape}"));
            }
            if verify_path(tree.root(), i, *digest + F::one(), &path) {
                return fail(
                    "stark merkle tampered leaf accepted",
                    format_args!("leaf {i}; {shape}"),
                );
            }
        }
    }
    Ok(())
}

/// One FRI fold against the even/odd polynomial decomposition it claims
/// to implement: `f(x) = e(x²) + x·o(x²)` folds to `e + β·o`, so the
/// folded codeword must equal a direct Horner evaluation of `e + β·o` on
/// the squared coset — coefficients, points and evaluation all derived
/// independently of the fold kernel.
fn stark_fri_fold_case(rng: &mut SplitRng) -> CaseResult {
    type F = Goldilocks;
    let size = adversarial_pow2(rng, 7).max(2);
    let Some(domain) = Radix2Domain::<F>::new(size) else {
        return fail("stark fri fold", format_args!("no domain of size {size}"));
    };
    let layer = LayerDomain {
        shift: domain.coset_shift(),
        omega: domain.group_gen(),
        size,
    };
    let coeffs: Vec<F> = adversarial_scalars(rng, size);
    // The input codeword: Horner on an independent ω power run, never
    // through the NTT or the layer's own element().
    let mut values = Vec::with_capacity(size);
    let mut x = layer.shift;
    for _ in 0..size {
        values.push(horner(&coeffs, x));
        x *= layer.omega;
    }
    let beta: F = adversarial_field(rng);
    let folded = fold_layer(&values, beta, &layer);
    let even: Vec<F> = coeffs.iter().copied().step_by(2).collect();
    let odd: Vec<F> = coeffs.iter().copied().skip(1).step_by(2).collect();
    let mut y = layer.shift * layer.shift;
    let omega2 = layer.omega * layer.omega;
    for (i, got) in folded.iter().enumerate() {
        let want = horner(&even, y) + beta * horner(&odd, y);
        if *got != want {
            return fail(
                "stark fri fold vs poly eval",
                format_args!("slot {i}, size {size}"),
            );
        }
        // The verifier-side pairwise fold is the same function.
        if fold_pair(values[i], values[i + size / 2], beta, &layer, i) != *got {
            return fail("stark fri fold_pair", format_args!("slot {i}, size {size}"));
        }
        y *= omega2;
    }
    Ok(())
}

/// End-to-end transparent pipeline on an adversarial circuit: prove,
/// verify, and close the proof byte codec roundtrip.
fn stark_roundtrip_case(rng: &mut SplitRng) -> CaseResult {
    let (circuit, witness) = adversarial_circuit::<Goldilocks>(rng);
    let params = StarkParams {
        blowup: 4,
        num_queries: 8,
    };
    let proof = zkperf_stark::prove(circuit.r1cs(), witness.full(), &params)
        .map_err(|e| format!("stark prove failed: {e}"))?;
    zkperf_stark::verify(circuit.r1cs(), witness.public(), &proof, &params)
        .map_err(|e| format!("stark roundtrip: valid proof rejected: {e} ({})", circuit.name()))?;
    let bytes = proof.encode();
    let decoded =
        StarkProof::decode(&bytes).map_err(|e| format!("stark codec decode failed: {e}"))?;
    if decoded != proof {
        return fail("stark codec roundtrip", circuit.name());
    }
    Ok(())
}

/// Merkle construction and FRI folding at sizes past the pool grain,
/// byte-compared across 1/2/4-thread pools.
fn stark_threads_case(rng: &mut SplitRng) -> CaseResult {
    let _guard = ThreadGuard;
    type F = Goldilocks;
    // 2^10 leaves clears the merkle grain (64) and the fold grain (256).
    let size = 1 << 10;
    let Some(domain) = Radix2Domain::<F>::new(size) else {
        return fail("stark threads", "no 2^10 domain");
    };
    let layer = LayerDomain {
        shift: domain.coset_shift(),
        omega: domain.group_gen(),
        size,
    };
    let values: Vec<F> = adversarial_scalars(rng, size);
    let beta: F = adversarial_field(rng);
    pool::set_threads(1);
    let fold_serial = fold_layer(&values, beta, &layer);
    let root_serial = MerkleTree::from_rows(size, |i| vec![values[i]]).root();
    for threads in [2usize, 4] {
        pool::set_threads(threads);
        if fold_layer(&values, beta, &layer) != fold_serial {
            return fail("stark threads fold", format_args!("{threads} threads"));
        }
        if MerkleTree::from_rows(size, |i| vec![values[i]]).root() != root_serial {
            return fail("stark threads merkle", format_args!("{threads} threads"));
        }
    }
    Ok(())
}

// ------------------------------------------------------------ inventory

/// The full oracle inventory, one entry per (kernel, instantiation).
pub fn all_oracles() -> Vec<Oracle> {
    use zkperf_ec::{bls12_381, bn254};
    use zkperf_ff::{bls12_381 as ffbls, bn254 as ffbn};
    vec![
        Oracle {
            name: "field_ops_bn254_fr",
            run: field_ops_case::<ffbn::Fr>,
        },
        Oracle {
            name: "field_ops_bn254_fq",
            run: field_ops_case::<ffbn::Fq>,
        },
        Oracle {
            name: "field_ops_bls12_381_fr",
            run: field_ops_case::<ffbls::Fr>,
        },
        Oracle {
            name: "field_ops_bls12_381_fq",
            run: field_ops_case::<ffbls::Fq>,
        },
        Oracle {
            name: "field_inverse_bn254_fr",
            run: field_inverse_case::<ffbn::Fr>,
        },
        Oracle {
            name: "field_inverse_bls12_381_fr",
            run: field_inverse_case::<ffbls::Fr>,
        },
        Oracle {
            name: "msm_bn254_g1",
            run: msm_case::<bn254::G1Params>,
        },
        Oracle {
            name: "msm_bn254_g2",
            run: msm_case::<bn254::G2Params>,
        },
        Oracle {
            name: "msm_bls12_381_g1",
            run: msm_case::<bls12_381::G1Params>,
        },
        Oracle {
            name: "fixed_base_bn254_g1",
            run: fixed_base_case::<bn254::G1Params>,
        },
        Oracle {
            name: "fixed_base_bls12_381_g1",
            run: fixed_base_case::<bls12_381::G1Params>,
        },
        Oracle {
            name: "batch_to_affine_bn254_g1",
            run: batch_to_affine_case::<bn254::G1Params>,
        },
        Oracle {
            name: "batch_add_lanes",
            run: batch_add_lanes_case,
        },
        Oracle {
            name: "ntt_lanes_bn254_fr",
            run: ntt_lanes_case,
        },
        Oracle {
            name: "quotient_lanes_bn254_fr",
            run: quotient_lanes_case,
        },
        Oracle {
            name: "glv_decompose_bn254_g1",
            run: glv_decompose_case::<bn254::G1Params>,
        },
        Oracle {
            name: "glv_decompose_bls12_381_g1",
            run: glv_decompose_case::<bls12_381::G1Params>,
        },
        Oracle {
            name: "glv_msm_bn254_g1",
            run: glv_msm_case::<bn254::G1Params>,
        },
        Oracle {
            name: "glv_msm_bls12_381_g1",
            run: glv_msm_case::<bls12_381::G1Params>,
        },
        Oracle {
            name: "glv_mul_windowed_bn254_g1",
            run: glv_mul_windowed_case::<bn254::G1Params>,
        },
        Oracle {
            name: "glv_scale_points_bn254_g1",
            run: scale_points_case::<bn254::G1Params>,
        },
        Oracle {
            name: "glv_scale_points_bls12_381_g1",
            run: scale_points_case::<bls12_381::G1Params>,
        },
        Oracle {
            name: "scale_points_bn254_g2",
            run: scale_points_case::<bn254::G2Params>,
        },
        Oracle {
            name: "pairing_bn254",
            run: pairing_bn254_case,
        },
        Oracle {
            name: "pairing_bls12_381",
            run: pairing_bls12_381_case,
        },
        Oracle {
            name: "ntt_bn254_fr",
            run: ntt_case::<ffbn::Fr>,
        },
        Oracle {
            name: "ntt_bls12_381_fr",
            run: ntt_case::<ffbls::Fr>,
        },
        Oracle {
            name: "lagrange_bn254_fr",
            run: lagrange_case::<ffbn::Fr>,
        },
        Oracle {
            name: "threads_msm_bn254_g1",
            run: threads_msm_case::<bn254::G1Params>,
        },
        Oracle {
            name: "threads_ntt_bn254_fr",
            run: threads_ntt_case::<ffbn::Fr>,
        },
        Oracle {
            name: "threads_fixed_base_bn254_g1",
            run: threads_fixed_base_case::<bn254::G1Params>,
        },
        Oracle {
            name: "threads_groth16_bn254",
            run: threads_groth16_case::<zkperf_ec::Bn254>,
        },
        Oracle {
            name: "groth16_roundtrip_bn254",
            run: groth16_roundtrip_case::<zkperf_ec::Bn254>,
        },
        Oracle {
            name: "groth16_roundtrip_bls12_381",
            run: groth16_roundtrip_case::<zkperf_ec::Bls12_381>,
        },
        Oracle {
            name: "plonk_roundtrip_bn254",
            run: plonk_roundtrip_case::<zkperf_ec::Bn254>,
        },
        Oracle {
            name: "plonk_roundtrip_bls12_381",
            run: plonk_roundtrip_case::<zkperf_ec::Bls12_381>,
        },
        Oracle {
            name: "stream_msm_bn254_g1",
            run: stream_msm_case::<bn254::G1Params>,
        },
        Oracle {
            name: "stream_msm_bn254_g2",
            run: stream_msm_case::<bn254::G2Params>,
        },
        Oracle {
            name: "stream_msm_bls12_381_g1",
            run: stream_msm_case::<bls12_381::G1Params>,
        },
        Oracle {
            name: "stream_budget_groth16_bn254",
            run: stream_budget_groth16_case::<zkperf_ec::Bn254>,
        },
        Oracle {
            name: "stream_budget_groth16_bls12_381",
            run: stream_budget_groth16_case::<zkperf_ec::Bls12_381>,
        },
        Oracle {
            name: "stream_threads_groth16_bn254",
            run: stream_threads_case::<zkperf_ec::Bn254>,
        },
        Oracle {
            name: "stream_file_roundtrip_bn254",
            run: stream_file_roundtrip_case::<zkperf_ec::Bn254>,
        },
        Oracle {
            name: "zkey_decode_bn254",
            run: zkey_decode_case::<zkperf_ec::Bn254>,
        },
        Oracle {
            name: "zkey_decode_bls12_381",
            run: zkey_decode_case::<zkperf_ec::Bls12_381>,
        },
        Oracle {
            name: "stark_goldilocks_field_ops",
            run: field_ops_case::<Goldilocks>,
        },
        Oracle {
            name: "stark_goldilocks_inverse",
            run: field_inverse_case::<Goldilocks>,
        },
        Oracle {
            name: "stark_poseidon_kernel",
            run: stark_poseidon_kernel_case,
        },
        Oracle {
            name: "stark_merkle_vs_reference",
            run: stark_merkle_case,
        },
        Oracle {
            name: "stark_fri_fold_vs_poly_eval",
            run: stark_fri_fold_case,
        },
        Oracle {
            name: "stark_roundtrip_goldilocks",
            run: stark_roundtrip_case,
        },
        Oracle {
            name: "stark_threads_merkle_fold",
            run: stark_threads_case,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_names_are_unique_and_wellformed() {
        let oracles = all_oracles();
        let mut seen = std::collections::HashSet::new();
        for o in &oracles {
            assert!(seen.insert(o.name), "duplicate oracle name {}", o.name);
            assert!(
                o.name.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
                "name {} unusable in a shell replay line",
                o.name
            );
        }
        assert!(oracles.len() >= 20);
    }

    /// The domains of order `2^k` and `3·2^k` (`k = 0..=12`) at 1, 2 and
    /// 4 threads against the O(n²) DFT, on both pairing curves' `Fr`.
    #[test]
    fn mixed_radix_domains_match_the_dft_reference_bn254() {
        assert_eq!(domain_orders_sweep::<zkperf_ff::bn254::Fr>(0x3_2e0), Ok(()));
    }

    #[test]
    fn mixed_radix_domains_match_the_dft_reference_bls12_381() {
        assert_eq!(domain_orders_sweep::<zkperf_ff::bls12_381::Fr>(0x3_2e1), Ok(()));
    }

    /// The same sweeps through the scalar bodies of the lane kernels, the
    /// ones a host without AVX-512 IFMA runs.
    #[test]
    fn mixed_radix_domains_match_the_dft_reference_bn254_scalar_body() {
        let sweep = || domain_orders_sweep::<zkperf_ff::bn254::Fr>(0x3_2e2);
        assert_eq!(zkperf_ff::lanes::with_scalar_body(sweep), Ok(()));
    }

    #[test]
    fn mixed_radix_domains_match_the_dft_reference_bls12_381_scalar_body() {
        let sweep = || domain_orders_sweep::<zkperf_ff::bls12_381::Fr>(0x3_2e3);
        assert_eq!(zkperf_ff::lanes::with_scalar_body(sweep), Ok(()));
    }

    #[test]
    fn cheap_oracles_pass_one_case() {
        // The full sweep lives in the integration suite and fuzz_lite;
        // here just one case of the pure-field oracles as a smoke check.
        for name in [
            "field_ops_bn254_fr",
            "field_inverse_bn254_fr",
            "ntt_bn254_fr",
        ] {
            let o = all_oracles()
                .into_iter()
                .find(|o| o.name == name)
                .expect("inventory contains the oracle");
            let mut rng = crate::rng::case_rng(0xfeed, name, 0);
            assert_eq!((o.run)(&mut rng), Ok(()), "{name}");
        }
    }
}
