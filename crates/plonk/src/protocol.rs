//! The PLONK protocol: setup, prove, verify.
//!
//! This is the "unlinearized" KZG-PLONK variant: the prover opens every
//! committed polynomial (wires, permutation accumulator, selectors, σ
//! columns, quotient) at the evaluation challenge and the verifier checks
//! the quotient identity numerically, rather than through the linearization
//! polynomial of the original paper. Proofs carry a few more field elements
//! but the algebra is identical, and the prover cost profile — the thing
//! this suite measures — matches vanilla PLONK: one more wire commitment
//! and several more FFT passes than Groth16, which is exactly why the paper
//! reports PlonK proving at about twice the Groth16 time. Blinding factors
//! are omitted (this suite characterizes performance, not deployments);
//! soundness is unaffected.
//!
//! # What the key holds, and what a proof transforms
//!
//! Everything that depends on the circuit alone is computed once, by
//! [`plonk_setup`], and kept in the prover key (`Preprocessed`): the five
//! selector and three σ polynomials in coefficient form (opened at ζ in
//! rounds 4–5), their evaluations on the 4n coset the quotient is computed
//! on (no table for an all-zero column — `q_R` and `q_C` on the
//! exponentiation circuits), `L₁` on that coset from its closed form
//! `(xⁿ − 1)/(n(x − 1))`, the four distinct values of `1/Z_H` there
//! (`Z_H(g·ω₄ⁿʲ)` depends on `j mod 4` only), and both NTT domains. That is
//! at most `8·4n + 4n` field elements of tables beside `8n` coefficients.
//!
//! A proof then runs five size-n inverse NTTs (`a, b, c, z, PI`), five
//! forward coset NTTs of size 4n for the same columns and one inverse
//! coset NTT for `t` — where interpolating and extending every circuit
//! column, `L₁` and `z(ωx)` per proof took fourteen and fifteen. `z(ωx)`
//! on the coset is `z` four slots further on (`ω = ω₄ⁿ⁴`), read in place.
//! The row loops (grand-product factors, quotient, `L₁`) and the fourteen
//! evaluations of round 4 are `zkperf-pool` jobs with a decomposition fixed
//! by `ROW_GRAIN`; every chunk writes only its own slots, so the values
//! are the same at any thread count, and inline on the caller when the
//! pool says so.

use rand::Rng;

use zkperf_circuit::R1cs;
use zkperf_ec::Engine;
use zkperf_ff::{batch_inverse, BigUint, Field, PrimeField};
use zkperf_poly::{DensePolynomial, Radix2Domain};
use zkperf_pool as pool;
use zkperf_trace as trace;

use crate::circuit::{ArithmetizeError, PlonkCircuit};
use crate::kzg::{Commitment, OpeningProof, Srs};
use crate::transcript::Transcript;

/// Polynomials opened at ζ, in transcript order.
const OPENED_AT_ZETA: usize = 13;

/// Rows per pool task in the row loops. A multiple of 4, so a chunk's
/// first row sits at phase 0 of the period-4 `1/Z_H` table.
const ROW_GRAIN: usize = 1 << 10;

/// The prover's key material.
#[derive(Debug, Clone)]
pub struct PlonkProverKey<E: Engine> {
    circuit: PlonkCircuit<E::Fr>,
    srs: Srs<E>,
    pre: Preprocessed<E::Fr>,
    vk: PlonkVerifyingKey<E>,
}

/// One circuit column (a selector or a σ).
#[derive(Debug, Clone)]
struct Column<F: PrimeField> {
    /// Coefficient form.
    poly: DensePolynomial<F>,
    /// Evaluations on the 4n coset; empty for an all-zero column, which
    /// the quotient loop skips.
    coset: Vec<F>,
}

/// The witness-independent half of the prover's work (module docs).
#[derive(Debug, Clone)]
struct Preprocessed<F: PrimeField> {
    domain: Radix2Domain<F>,
    domain4: Radix2Domain<F>,
    /// `q_L, q_R, q_O, q_M, q_C`.
    selectors: [Column<F>; 5],
    /// `S_σ1, S_σ2, S_σ3`.
    sigmas: [Column<F>; 3],
    /// `L₁` on the 4n coset.
    l1_coset: Vec<F>,
    /// `1/Z_H` on the 4n coset, by `j mod 4`.
    zh_inv: [F; 4],
}

/// The verifier's key material.
#[derive(Debug, Clone)]
pub struct PlonkVerifyingKey<E: Engine> {
    /// Domain size.
    pub n: usize,
    /// Commitments to `q_L, q_R, q_O, q_M, q_C`.
    pub q_commits: [Commitment<E>; 5],
    /// Commitments to `S_σ1, S_σ2, S_σ3`.
    pub sigma_commits: [Commitment<E>; 3],
    /// Coset labels of the permutation encoding.
    pub coset_ks: [E::Fr; 3],
    /// Rows carrying public inputs.
    pub public_rows: Vec<usize>,
    /// The verifier's part of the SRS: `[1]₁`, `[1]₂` and `[τ]₂`.
    pub srs: Srs<E>,
}

/// A PLONK proof.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlonkProof<E: Engine> {
    /// Commitments `[a], [b], [c]` to the wire polynomials.
    pub wire_commits: [Commitment<E>; 3],
    /// Commitment `[z]` to the permutation accumulator.
    pub z_commit: Commitment<E>,
    /// Commitment `[t]` to the quotient polynomial.
    pub t_commit: Commitment<E>,
    /// Evaluations at ζ, in protocol order:
    /// `a, b, c, z, s₁, s₂, s₃, q_L, q_R, q_O, q_M, q_C, t`.
    pub evals_zeta: [E::Fr; OPENED_AT_ZETA],
    /// `z(ζω)`.
    pub z_omega_eval: E::Fr,
    /// Batched opening witness at ζ.
    pub w_zeta: OpeningProof<E>,
    /// Opening witness for `z` at ζω.
    pub w_zeta_omega: OpeningProof<E>,
}

/// Errors from [`plonk_setup`] and [`plonk_prove`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlonkError {
    /// Arithmetization failed.
    Arithmetize(ArithmetizeError),
    /// Witness length does not match the circuit.
    WitnessLength {
        /// Wires expected.
        expected: usize,
        /// Wires supplied.
        got: usize,
    },
    /// The witness does not satisfy the circuit: the permutation grand
    /// product does not close, or the quotient is not a polynomial of the
    /// degree the SRS was sized for.
    UnsatisfiedWitness,
    /// A factor of the permutation grand product vanished, so a
    /// denominator has no inverse (β and γ hit a root: probability ~n/p).
    ZeroPermutationFactor,
    /// The ambient [`zkperf_pool::CancelToken`] was cancelled or its
    /// deadline expired; the operation was abandoned at a round boundary.
    Cancelled,
}

impl std::fmt::Display for PlonkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlonkError::Arithmetize(e) => write!(f, "arithmetization failed: {e}"),
            PlonkError::WitnessLength { expected, got } => {
                write!(f, "witness has {got} wires, circuit expects {expected}")
            }
            PlonkError::UnsatisfiedWitness => write!(f, "witness does not satisfy the circuit"),
            PlonkError::ZeroPermutationFactor => {
                write!(f, "a factor of the permutation grand product is zero")
            }
            PlonkError::Cancelled => write!(f, "plonk operation cancelled by caller or deadline"),
        }
    }
}

impl std::error::Error for PlonkError {}

impl From<ArithmetizeError> for PlonkError {
    fn from(e: ArithmetizeError) -> Self {
        PlonkError::Arithmetize(e)
    }
}

fn interpolate<F: PrimeField>(domain: &Radix2Domain<F>, evals: &[F]) -> DensePolynomial<F> {
    DensePolynomial::interpolate(domain, evals)
}

/// `p` on the 4n coset.
fn coset_eval<F: PrimeField>(domain4: &Radix2Domain<F>, p: &DensePolynomial<F>) -> Vec<F> {
    let mut buf = Vec::with_capacity(domain4.size());
    buf.extend_from_slice(p.coeffs());
    buf.resize(domain4.size(), F::zero());
    domain4.coset_fft_in_place(&mut buf);
    buf
}

impl<F: PrimeField> Preprocessed<F> {
    fn new(circuit: &PlonkCircuit<F>) -> Self {
        let n = circuit.n;
        let domain = Radix2Domain::<F>::new(n).expect("checked by arithmetization");
        let domain4 = Radix2Domain::<F>::new(4 * n).expect("checked by arithmetization");
        let column = |evals: &Vec<F>| {
            let poly = interpolate(&domain, evals);
            let coset = if poly.is_zero() {
                Vec::new()
            } else {
                coset_eval(&domain4, &poly)
            };
            Column { poly, coset }
        };
        let selectors =
            [&circuit.q_l, &circuit.q_r, &circuit.q_o, &circuit.q_m, &circuit.q_c].map(column);
        let sigmas = circuit.sigma.each_ref().map(column);

        // On the coset x_j = g·ω₄ʲ: x_jⁿ = gⁿ·iʲ with i = ω₄ⁿ a primitive
        // fourth root of unity, so Z_H takes four values; none is zero and
        // no x_j is 1, because g⁴ⁿ ≠ 1.
        let (g, w4) = (domain4.coset_shift(), domain4.group_gen());
        let gn = g.pow(&BigUint::from_u64(n as u64));
        let i = domain4.element(n);
        let mut zh_inv = [gn, gn * i, -gn, -(gn * i)].map(|v| v - F::one());
        // L₁(x) = Z_H(x) / (n·(x − 1)).
        let n_inv = F::from_u64(n as u64).inverse().expect("n < p");
        let l1_numerators = zh_inv.map(|zh| zh * n_inv);
        batch_inverse(&mut zh_inv);
        let mut l1_coset = vec![F::zero(); domain4.size()];
        pool::parallel_chunks_mut(&mut l1_coset, ROW_GRAIN, |ci, chunk| {
            let start = ci * ROW_GRAIN;
            let mut x = g * domain4.element(start);
            for slot in chunk.iter_mut() {
                *slot = x - F::one();
                x *= w4;
            }
            batch_inverse(chunk);
            for (k, slot) in chunk.iter_mut().enumerate() {
                *slot *= l1_numerators[k % 4];
            }
        });
        Preprocessed {
            domain,
            domain4,
            selectors,
            sigmas,
            l1_coset,
            zh_inv,
        }
    }
}

/// Runs the PLONK setup over `r1cs`: arithmetizes, samples the SRS, and
/// interpolates, extends and commits the circuit polynomials.
///
/// # Errors
///
/// Returns [`PlonkError::Arithmetize`] for circuits outside the supported
/// gate form or too large for the field's FFT domain, and
/// [`PlonkError::Cancelled`] when the ambient token fires between phases.
pub fn plonk_setup<E: Engine, R: Rng + ?Sized>(
    r1cs: &R1cs<E::Fr>,
    rng: &mut R,
) -> Result<PlonkProverKey<E>, PlonkError> {
    let _g = trace::region_profile("plonk_setup");
    let circuit = PlonkCircuit::from_r1cs(r1cs)?;
    if pool::cancellation_pending() {
        return Err(PlonkError::Cancelled);
    }
    let n = circuit.n;
    // Without blinding the largest committed polynomial is the quotient:
    // degree 4(n − 1) for z·a·b·c, less n for Z_H, is 3n − 4. 3n + 1 powers
    // cover it.
    let srs = Srs::<E>::generate(3 * n, rng);
    if pool::cancellation_pending() {
        return Err(PlonkError::Cancelled);
    }
    let pre = Preprocessed::new(&circuit);
    let q_commits = pre.selectors.each_ref().map(|c| srs.commit(&c.poly));
    let sigma_commits = pre.sigmas.each_ref().map(|c| srs.commit(&c.poly));
    if pool::cancellation_pending() {
        return Err(PlonkError::Cancelled);
    }
    let vk = PlonkVerifyingKey {
        n,
        q_commits,
        sigma_commits,
        coset_ks: circuit.coset_ks,
        public_rows: circuit.public_rows.clone(),
        srs: srs.verifier_part(),
    };
    Ok(PlonkProverKey {
        circuit,
        srs,
        pre,
        vk,
    })
}

impl<E: Engine> PlonkProverKey<E> {
    /// The embedded verification key.
    pub fn vk(&self) -> &PlonkVerifyingKey<E> {
        &self.vk
    }

    /// Approximate size of the key material: two coordinates per SRS
    /// power, plus the field elements of the arithmetized columns and of
    /// the preprocessed tables.
    pub fn size_bytes(&self) -> usize {
        let pre = &self.pre;
        let columns = pre.selectors.iter().chain(&pre.sigmas);
        let tables: usize = columns.map(|c| c.poly.coeffs().len() + c.coset.len()).sum();
        let elements = 8 * self.circuit.n + tables + pre.l1_coset.len() + pre.zh_inv.len();
        let coordinate = std::mem::size_of::<<E::G1 as zkperf_ec::CurveParams>::Base>();
        (self.srs.max_degree() + 1) * 2 * coordinate + elements * std::mem::size_of::<E::Fr>()
    }
}

fn absorb_vk<E: Engine>(t: &mut Transcript<E::Fr>, vk: &PlonkVerifyingKey<E>)
where
    <E::G1 as zkperf_ec::CurveParams>::Base: PrimeField,
{
    t.absorb(E::Fr::from_u64(vk.n as u64));
    for c in vk.q_commits.iter().chain(vk.sigma_commits.iter()) {
        t.absorb_point(&c.0);
    }
}

/// Round 2: the permutation accumulator `z` over the domain,
/// `z₀ = 1`, `zᵢ₊₁ = zᵢ · Π(w + β·k·ωⁱ + γ) / Π(w + β·σ + γ)`.
fn permutation_accumulator<F: PrimeField>(
    circuit: &PlonkCircuit<F>,
    domain: &Radix2Domain<F>,
    cols: &[Vec<F>; 3],
    beta: F,
    gamma: F,
) -> Result<Vec<F>, PlonkError> {
    let omega = domain.group_gen();
    let beta_k = circuit.coset_ks.map(|k| beta * k);
    // Per-row ratios first, each chunk sharing one inversion; then the
    // running product turns them into z in place.
    let mut z = vec![F::zero(); circuit.n];
    pool::parallel_chunks_mut(&mut z, ROW_GRAIN, |ci, chunk| {
        let start = ci * ROW_GRAIN;
        for (k, slot) in chunk.iter_mut().enumerate() {
            let i = start + k;
            *slot = (cols[0][i] + beta * circuit.sigma[0][i] + gamma)
                * (cols[1][i] + beta * circuit.sigma[1][i] + gamma)
                * (cols[2][i] + beta * circuit.sigma[2][i] + gamma);
        }
        batch_inverse(chunk);
        let mut x = domain.element(start);
        for (k, slot) in chunk.iter_mut().enumerate() {
            let i = start + k;
            *slot *= (cols[0][i] + beta_k[0] * x + gamma)
                * (cols[1][i] + beta_k[1] * x + gamma)
                * (cols[2][i] + beta_k[2] * x + gamma);
            x *= omega;
        }
    });
    let mut acc = F::one();
    for slot in z.iter_mut() {
        // A zero denominator is left at zero by the batch inversion, and a
        // zero numerator implies one on a satisfying witness.
        if slot.is_zero() {
            return Err(PlonkError::ZeroPermutationFactor);
        }
        let ratio = std::mem::replace(slot, acc);
        acc *= ratio;
    }
    if !acc.is_one() {
        return Err(PlonkError::UnsatisfiedWitness);
    }
    Ok(z)
}

/// Round 3: the quotient `t = (gate + α·perm₁ + α²·perm₂) / Z_H`, computed
/// row by row on the 4n coset. The 4n-sized buffers die here, before the
/// commitment and opening MSMs allocate theirs.
fn quotient<F: PrimeField>(
    circuit: &PlonkCircuit<F>,
    pre: &Preprocessed<F>,
    [a, b, c, z, pi]: [&DensePolynomial<F>; 5],
    [beta, gamma, alpha]: [F; 3],
) -> DensePolynomial<F> {
    let domain4 = &pre.domain4;
    let [a4, b4, c4, z4, pi4] = [a, b, c, z, pi].map(|p| coset_eval(domain4, p));
    let [ql, qr, qo, qm, qc] = pre.selectors.each_ref().map(|col| col.coset.as_slice());
    let [s1, s2, s3] = pre.sigmas.each_ref().map(|col| col.coset.as_slice());
    // An all-zero column has no table and contributes nothing.
    let term = |col: &[F], j: usize, v: F| col.get(j).map_or_else(F::zero, |&q| q * v);
    let m = domain4.size();
    let (g, w4) = (domain4.coset_shift(), domain4.group_gen());
    let beta_k = circuit.coset_ks.map(|k| beta * k);
    let alpha2 = alpha.square();
    let mut t = vec![F::zero(); m];
    pool::parallel_chunks_mut(&mut t, ROW_GRAIN, |ci, chunk| {
        let start = ci * ROW_GRAIN;
        let mut x = g * domain4.element(start);
        for (k, slot) in chunk.iter_mut().enumerate() {
            let j = start + k;
            let (a, b, c, z) = (a4[j], b4[j], c4[j], z4[j]);
            let gate = term(ql, j, a)
                + term(qr, j, b)
                + term(qo, j, c)
                + term(qm, j, a * b)
                + qc.get(j).copied().unwrap_or_else(F::zero)
                + pi4[j];
            // z(ωx) on the coset is z four slots on: ω = ω₄⁴.
            let perm1 = z
                * (a + beta_k[0] * x + gamma)
                * (b + beta_k[1] * x + gamma)
                * (c + beta_k[2] * x + gamma)
                - z4[(j + 4) % m]
                    * (a + beta * s1[j] + gamma)
                    * (b + beta * s2[j] + gamma)
                    * (c + beta * s3[j] + gamma);
            let perm2 = (z - F::one()) * pre.l1_coset[j];
            *slot = (gate + alpha * perm1 + alpha2 * perm2) * pre.zh_inv[k % 4];
            x *= w4;
        }
    });
    domain4.coset_ifft_in_place(&mut t);
    DensePolynomial::new(t)
}

/// Produces a PLONK proof for the full R1CS `witness`.
///
/// # Errors
///
/// Returns [`PlonkError::WitnessLength`] when the witness was generated
/// for a different circuit, [`PlonkError::UnsatisfiedWitness`] when it does
/// not satisfy this one, and [`PlonkError::Cancelled`] when the ambient
/// token fires between rounds.
pub fn plonk_prove<E: Engine>(
    pk: &PlonkProverKey<E>,
    witness: &[E::Fr],
) -> Result<PlonkProof<E>, PlonkError>
where
    <E::G1 as zkperf_ec::CurveParams>::Base: PrimeField,
{
    let _g = trace::region_profile("plonk_prove");
    let (circuit, pre) = (&pk.circuit, &pk.pre);
    if witness.len() != circuit.num_base_wires {
        return Err(PlonkError::WitnessLength {
            expected: circuit.num_base_wires,
            got: witness.len(),
        });
    }
    let n = circuit.n;
    let domain = &pre.domain;
    let omega = domain.group_gen();

    let cols = circuit.wire_columns(witness);
    let pi_values = circuit.public_values(witness);

    // Round 1: wire polynomials.
    let [a_poly, b_poly, c_poly] = cols.each_ref().map(|col| interpolate(domain, col));
    let wire_commits = [&a_poly, &b_poly, &c_poly].map(|p| pk.srs.commit(p));

    let mut transcript = Transcript::<E::Fr>::new(0x504c_4f4e); // "PLON"
    absorb_vk::<E>(&mut transcript, &pk.vk);
    for v in &pi_values {
        transcript.absorb(*v);
    }
    for c in &wire_commits {
        transcript.absorb_point(&c.0);
    }
    let beta = transcript.challenge();
    let gamma = transcript.challenge();

    if pool::cancellation_pending() {
        return Err(PlonkError::Cancelled);
    }

    // Round 2: permutation accumulator z.
    let z_poly = interpolate(
        domain,
        &permutation_accumulator(circuit, domain, &cols, beta, gamma)?,
    );
    let z_commit = pk.srs.commit(&z_poly);
    transcript.absorb_point(&z_commit.0);
    let alpha = transcript.challenge();

    if pool::cancellation_pending() {
        return Err(PlonkError::Cancelled);
    }

    // Round 3: the quotient.
    let mut pi_evals = vec![E::Fr::zero(); n];
    for (&row, &v) in circuit.public_rows.iter().zip(&pi_values) {
        pi_evals[row] = -v;
    }
    let pi_poly = interpolate(domain, &pi_evals);
    let t_poly = quotient(
        circuit,
        pre,
        [&a_poly, &b_poly, &c_poly, &z_poly, &pi_poly],
        [beta, gamma, alpha],
    );
    if pool::cancellation_pending() {
        return Err(PlonkError::Cancelled);
    }
    // Exact division leaves degree 3n − 4 (see `plonk_setup`); anything
    // beyond means the gate or permutation identity failed on the domain.
    if t_poly.degree() > 3 * n - 4 {
        return Err(PlonkError::UnsatisfiedWitness);
    }
    let t_commit = pk.srs.commit(&t_poly);
    transcript.absorb_point(&t_commit.0);
    let zeta = transcript.challenge();

    // Round 4: the thirteen evaluations at ζ and z(ζω), one task each.
    let [s1, s2, s3] = pre.sigmas.each_ref().map(|col| &col.poly);
    let [ql, qr, qo, qm, qc] = pre.selectors.each_ref().map(|col| &col.poly);
    let opened = [
        &a_poly, &b_poly, &c_poly, &z_poly, s1, s2, s3, ql, qr, qo, qm, qc, &t_poly,
    ];
    let zeta_omega = zeta * omega;
    let mut evals = [E::Fr::zero(); OPENED_AT_ZETA + 1];
    pool::parallel_fill(&mut evals, 1, |i| match opened.get(i) {
        Some(p) => p.evaluate(zeta),
        None => z_poly.evaluate(zeta_omega),
    });
    for v in &evals {
        transcript.absorb(*v);
    }
    let nu = transcript.challenge();
    let mut evals_zeta = [E::Fr::zero(); OPENED_AT_ZETA];
    evals_zeta.copy_from_slice(&evals[..OPENED_AT_ZETA]);

    // Round 5: opening witnesses.
    let (_, w_zeta) = pk.srs.open_batched(&opened, zeta, nu);
    let (_, w_zeta_omega) = pk.srs.open(&z_poly, zeta_omega);

    Ok(PlonkProof {
        wire_commits,
        z_commit,
        t_commit,
        evals_zeta,
        z_omega_eval: evals[OPENED_AT_ZETA],
        w_zeta,
        w_zeta_omega,
    })
}

/// Verifies a PLONK proof against the public-input values (the circuit's
/// public witness prefix `[1, outputs…, public inputs…]`).
pub fn plonk_verify<E: Engine>(
    vk: &PlonkVerifyingKey<E>,
    proof: &PlonkProof<E>,
    public_values: &[E::Fr],
) -> bool
where
    <E::G1 as zkperf_ec::CurveParams>::Base: PrimeField,
{
    let _g = trace::region_profile("plonk_verify");
    if public_values.len() != vk.public_rows.len() {
        return false;
    }
    let n = vk.n;
    let domain = Radix2Domain::<E::Fr>::new(n).expect("vk domain is valid");
    let omega = domain.group_gen();
    let [k0, k1, k2] = vk.coset_ks;

    // Replay the transcript.
    let mut transcript = Transcript::<E::Fr>::new(0x504c_4f4e);
    absorb_vk::<E>(&mut transcript, vk);
    for v in public_values {
        transcript.absorb(*v);
    }
    for c in &proof.wire_commits {
        transcript.absorb_point(&c.0);
    }
    let beta = transcript.challenge();
    let gamma = transcript.challenge();
    transcript.absorb_point(&proof.z_commit.0);
    let alpha = transcript.challenge();
    transcript.absorb_point(&proof.t_commit.0);
    let zeta = transcript.challenge();
    for v in proof
        .evals_zeta
        .iter()
        .chain(std::iter::once(&proof.z_omega_eval))
    {
        transcript.absorb(*v);
    }
    let nu = transcript.challenge();

    let [a, b, c, z, s1, s2, s3, ql, qr, qo, qm, qc, t] = proof.evals_zeta;

    // Z_H(ζ), L₁(ζ) and PI(ζ).
    let zeta_n = zeta.pow(&BigUint::from_u64(n as u64));
    let zh = zeta_n - E::Fr::one();
    if zh.is_zero() {
        return false; // ζ landed in the domain (negligible probability)
    }
    let n_inv = E::Fr::from_u64(n as u64).inverse().expect("n < p");
    let lagrange_at = |row: usize| -> E::Fr {
        let w_i = domain.element(row);
        w_i * n_inv * zh * (zeta - w_i).inverse().expect("zeta not in domain")
    };
    let l1 = lagrange_at(0);
    let mut pi = E::Fr::zero();
    for (&row, &v) in vk.public_rows.iter().zip(public_values) {
        pi += -v * lagrange_at(row);
    }

    // The quotient identity at ζ.
    let gate = ql * a + qr * b + qo * c + qm * a * b + qc + pi;
    let perm1 = z
        * (a + beta * k0 * zeta + gamma)
        * (b + beta * k1 * zeta + gamma)
        * (c + beta * k2 * zeta + gamma)
        - proof.z_omega_eval
            * (a + beta * s1 + gamma)
            * (b + beta * s2 + gamma)
            * (c + beta * s3 + gamma);
    let perm2 = (z - E::Fr::one()) * l1;
    if gate + alpha * perm1 + alpha.square() * perm2 != t * zh {
        return false;
    }

    // KZG checks: the 13 openings at ζ (batched) and z at ζω.
    let commitments = [
        proof.wire_commits[0],
        proof.wire_commits[1],
        proof.wire_commits[2],
        proof.z_commit,
        vk.sigma_commits[0],
        vk.sigma_commits[1],
        vk.sigma_commits[2],
        vk.q_commits[0],
        vk.q_commits[1],
        vk.q_commits[2],
        vk.q_commits[3],
        vk.q_commits[4],
        proof.t_commit,
    ];
    let items: Vec<(Commitment<E>, E::Fr)> = commitments
        .iter()
        .copied()
        .zip(proof.evals_zeta.iter().copied())
        .collect();
    if !vk
        .srs
        .verify_batched_opening(&items, zeta, nu, &proof.w_zeta)
    {
        return false;
    }
    vk.srs.verify_opening(
        &proof.z_commit,
        zeta * omega,
        proof.z_omega_eval,
        &proof.w_zeta_omega,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkperf_circuit::library::{exponentiate, merkle_membership_poseidon};
    use zkperf_ec::Bn254;
    use zkperf_ff::bn254::Fr;

    /// `L₁` and `1/Z_H` the way the prover used to get them for every
    /// proof: interpolate-and-extend, and invert all 4n values.
    #[test]
    fn cached_l1_and_zh_tables_match_transform_and_invert() {
        for log_n in [2u32, 5, 9] {
            let r1cs_rows = (1 << log_n) - 3; // plus three public-input gates
            let circuit = PlonkCircuit::from_r1cs(exponentiate::<Fr>(r1cs_rows).r1cs()).unwrap();
            let pre = Preprocessed::new(&circuit);
            let (n, m) = (circuit.n, 4 * circuit.n);
            assert_eq!((n, pre.domain4.size()), (1 << log_n, m));

            let mut l1_evals = vec![Fr::zero(); n];
            l1_evals[0] = Fr::one();
            let l1 = coset_eval(&pre.domain4, &interpolate(&pre.domain, &l1_evals));
            assert_eq!(pre.l1_coset, l1, "L₁ at n = {n}");

            let mut x = pre.domain4.coset_shift();
            for j in 0..m {
                let zh = pre.domain.eval_vanishing(x);
                assert_eq!(pre.zh_inv[j % 4], zh.inverse().unwrap(), "1/Z_H at row {j}");
                x *= pre.domain4.group_gen();
            }
        }
    }

    #[test]
    fn all_zero_columns_hold_no_table_and_still_prove() {
        // Exponentiation never uses q_R or q_C; the Poseidon circuit's
        // addition chains use q_R, and q_C is zero everywhere.
        let mut rng = zkperf_ff::test_rng();
        let exp = exponentiate::<Fr>(12);
        let pk = plonk_setup::<Bn254, _>(exp.r1cs(), &mut rng).unwrap();
        let tables: Vec<bool> = pk.pre.selectors.iter().map(|c| !c.coset.is_empty()).collect();
        assert_eq!(tables, [true, false, true, true, false]);
        assert!(pk.pre.selectors[1].poly.is_zero());
        assert!(pk.vk.q_commits[1].0.infinity);
        let w = exp.generate_witness(&[Fr::from_u64(3)], &[]).unwrap();
        let proof = plonk_prove(&pk, w.full()).unwrap();
        assert!(plonk_verify(&pk.vk, &proof, w.public()));
        assert!(proof.evals_zeta[8].is_zero() && proof.evals_zeta[11].is_zero());

        let poseidon = merkle_membership_poseidon::<Fr>(1);
        let pk = plonk_setup::<Bn254, _>(poseidon.r1cs(), &mut rng).unwrap();
        assert!(!pk.pre.selectors[1].coset.is_empty());
        assert!(pk.pre.selectors[4].coset.is_empty());
    }

    #[test]
    fn key_size_counts_srs_and_tables() {
        let mut rng = zkperf_ff::test_rng();
        let pk = plonk_setup::<Bn254, _>(exponentiate::<Fr>(12).r1cs(), &mut rng).unwrap();
        let n = pk.circuit.n;
        assert_eq!(pk.srs.max_degree(), 3 * n);
        assert_eq!(pk.vk.srs.max_degree(), 0);
        // 3n + 1 powers, 8n column values, 6 non-zero polynomials with
        // their 4n tables, L₁ and the four 1/Z_H values.
        let elements = 8 * n + 6 * 5 * n + 4 * n + 4;
        assert_eq!(pk.size_bytes(), (3 * n + 1) * 64 + elements * 32);
    }

    #[test]
    fn vanishing_permutation_factor_is_a_typed_error() {
        let circuit = exponentiate::<Fr>(6);
        let plonk = PlonkCircuit::from_r1cs(circuit.r1cs()).unwrap();
        let domain = Radix2Domain::<Fr>::new(plonk.n).unwrap();
        let w = circuit.generate_witness(&[Fr::from_u64(3)], &[]).unwrap();
        let cols = plonk.wire_columns(w.full());
        let beta = Fr::from_u64(7);
        assert!(permutation_accumulator(&plonk, &domain, &cols, beta, Fr::from_u64(11)).is_ok());
        // γ chosen so that row 5's first denominator factor is zero.
        let gamma = -(cols[0][5] + beta * plonk.sigma[0][5]);
        assert_eq!(
            permutation_accumulator(&plonk, &domain, &cols, beta, gamma),
            Err(PlonkError::ZeroPermutationFactor)
        );
    }
}
