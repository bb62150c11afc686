//! The PLONK protocol: setup, prove, verify.
//!
//! This is the final protocol of the PLONK paper (Gabizon, Williamson,
//! Ciobotaru, §8.3) — the one snarkjs runs and the source paper measured —
//! without blinding factors (this suite characterizes performance, not
//! deployments; soundness is unaffected). The quotient `t` is split into
//! `t_lo, t_mid, t_hi` of fewer than n coefficients each, round 4 sends six
//! evaluations `ā, b̄, c̄, s̄σ1, s̄σ2` (at ζ) and `z̄ω` (at ζω), and the gate,
//! permutation and quotient identities are checked through the
//! linearisation polynomial
//!
//! ```text
//! r(X) = ā·b̄·q_M + ā·q_L + b̄·q_R + c̄·q_O + q_C + PI(ζ)
//!      + α[(ā+βk₀ζ+γ)(b̄+βk₁ζ+γ)(c̄+βk₂ζ+γ)·z − (ā+βs̄σ1+γ)(b̄+βs̄σ2+γ)(c̄+β·S_σ3+γ)·z̄ω]
//!      + α²·L₁(ζ)·(z − 1) − Z_H(ζ)·(t_lo + ζⁿ·t_mid + ζ²ⁿ·t_hi),      r(ζ) = 0,
//! ```
//!
//! whose commitment the verifier assembles from the key's and the proof's
//! commitments. The two opening witnesses are
//! `W_ζ = (r + ν(a − ā) + ν²(b − b̄) + ν³(c − c̄) + ν⁴(S_σ1 − s̄σ1) + ν⁵(S_σ2 − s̄σ2))/(X − ζ)`
//! and `W_ζω = (z − z̄ω)/(X − ζω)`, and the verifier checks both with one
//! product of two pairings under a batching challenge `u`. Every committed
//! polynomial has degree below n, so the SRS holds n powers and each of a
//! proof's nine MSMs runs over at most n points. That is four more
//! commitments than Groth16 makes, beside transforms on a 4n coset, which
//! is why the paper reports PlonK proving at about twice the Groth16 time.
//!
//! # The domain
//!
//! n is the least order of the form `2^k` or `3·2^k` (and at least 4) that
//! holds the circuit's gates — [`zkperf_poly::Radix2Domain::new`] picks it,
//! and nothing here rounds rows up — so a circuit just past a power of two
//! (`plonk_exp_2e14`'s 2^14 + 3 gates) proves on `3·2^13` rows, not `2^15`.
//! The quotient's coset then has 4n points of the same form, and nothing
//! below needs a power of two: `Z_H` on that coset still takes four values
//! (`ω₄ⁿ` has order 4 for any n), `L₁` has its closed form on any
//! subgroup, and the coset index of a public row wraps by remainder. The
//! verifier accepts a key's n only when [`zkperf_poly::root_of_unity`]
//! has a generator of that order — the function the prover's domain takes
//! its ω from — and n ≥ 4.
//!
//! # Which half of the SRS a commitment reads
//!
//! The key's SRS holds τ in two bases (`kzg` module docs), and each
//! commitment is made in the basis its data is born in — one route per kind
//! of data, the same group element either way. The wires `a, b, c`, the
//! accumulator `z` and the eight circuit columns are born as values on the
//! n rows and commit over the Lagrange half, before anything interpolates
//! them: padding rows, the constant-one wire, small selector values and
//! all-zero columns cost the MSM what they hold, not n full-width
//! coefficients. `t_lo, t_mid, t_hi` are born as coefficients (the quotient
//! exists on the 4n coset and only its inverse transform has a degree to
//! split at n), and `W_ζ`, `W_ζω` are quotients by `X − ζ`, `X − ζω`
//! computed by synthetic division of coefficient forms: none of the five has
//! values on the n rows to commit from short of a forward transform, so
//! they stay on the powers.
//!
//! # What the key holds, and what a proof transforms
//!
//! Everything that depends on the circuit alone is computed once, by
//! [`plonk_setup`], and kept in the prover key (`Preprocessed`): the five
//! selector and three σ polynomials in coefficient form (combined into `r`
//! and `W_ζ` in round 5), their evaluations on the 4n coset the quotient is
//! computed on (no table for an all-zero column — `q_R` and `q_C` on the
//! exponentiation circuits), `L₁` on that coset from its closed form
//! `(xⁿ − 1)/(n(x − 1))`, the four distinct values of `1/Z_H` there
//! (`Z_H(g·ω₄ⁿʲ)` depends on `j mod 4` only), and both NTT domains.
//! That is at most `8·4n + 4n` field elements of tables beside `8n`
//! coefficients.
//!
//! A proof then runs four size-n inverse NTTs (`a, b, c, z`, each in the
//! vector its values were committed from), four forward coset NTTs of size
//! 4n for the same columns and one inverse coset NTT for `t`. `z(ωx)` on
//! the coset is `z` four slots further on (`ω = ω₄ⁿ⁴`), read in place, and
//! the public-input polynomial `PI = Σ −vᵢ·Lᵢ` is read off
//! the key's `L₁` table (`Lᵢ(x) = L₁(x/ωⁱ)`: that table 4i slots back), one
//! multiplication per public row and coset row. The row loops
//! (grand-product factors, quotient, `L₁`, the round-5 combination) and the
//! six evaluations of round 4 are
//! `zkperf-pool` jobs with a decomposition fixed by `ROW_GRAIN`; every
//! chunk writes only its own slots, so the values are the same at any
//! thread count, and inline on the caller when the pool says so.
//!
//! On a host with AVX-512 IFMA the field's lanes (`zkperf_ff::lanes`,
//! `PrimeField::lanes`) carry the `Fr` arithmetic of the transforms —
//! the radix-3 layer and every radix-2 pass, the coset shifts and the
//! `1/n` scaling, inside `zkperf-poly` — and of the quotient's row
//! loop, which evaluates eight coset rows per step. The values are the
//! scalar body's bit for bit, and a traced cell runs the scalar body
//! (`zkperf_ff::lanes::with_scalar_body`); on `plonk_exp_2e14`
//! (n = 3·2^13, two threads) the nine transforms went from ≈ 200–240 to
//! ≈ 65–80 ms and the quotient rows from ≈ 60–70 to ≈ 16–20 ms of a proof.

use rand::Rng;

use zkperf_circuit::R1cs;
use zkperf_ec::{msm, Affine, Engine};
use zkperf_ff::lanes::{Lanes, Vector};
use zkperf_ff::{batch_inverse, BigUint, Field, PrimeField};
use zkperf_poly::{root_of_unity, DensePolynomial, Radix2Domain};
use zkperf_pool as pool;
use zkperf_trace as trace;

use crate::circuit::{ArithmetizeError, PlonkCircuit};
use crate::kzg::{Commitment, OpeningProof, Srs};
use crate::transcript::Transcript;

/// Polynomials batched into the opening at ζ, in the order
/// [`ZetaCombination::scalars`] lists them: `q_L, q_R, q_O, q_M, q_C, z,
/// S_σ3, t_lo, t_mid, t_hi` (`r` less its constant term), then
/// `a, b, c, S_σ1, S_σ2`.
const COMBINED_AT_ZETA: usize = 15;

/// Where `z` sits among them.
const Z_SLOT: usize = 5;

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

/// A PLONK proof: nine G1 points and six field elements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlonkProof<E: Engine> {
    /// Commitments `[a], [b], [c]` to the wire polynomials.
    pub wire_commits: [Commitment<E>; 3],
    /// Commitment `[z]` to the permutation accumulator.
    pub z_commit: Commitment<E>,
    /// Commitments `[t_lo], [t_mid], [t_hi]` to the three pieces of the
    /// quotient, `t = t_lo + Xⁿ·t_mid + X²ⁿ·t_hi`.
    pub t_commits: [Commitment<E>; 3],
    /// `ā, b̄, c̄, s̄σ1, s̄σ2` (evaluations at ζ) and `z̄ω` (`z` at ζω), in
    /// transcript order.
    pub evals: [E::Fr; 6],
    /// Opening witness `W_ζ` for the batched polynomials at ζ.
    pub w_zeta: OpeningProof<E>,
    /// Opening witness `W_ζω` for `z` at ζω.
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
    /// degree its three pieces hold.
    UnsatisfiedWitness,
    /// A factor of the permutation grand product vanished, so a
    /// denominator has no inverse (β and γ hit a root: probability ~n/p).
    ZeroPermutationFactor,
    /// The evaluation challenge ζ fell inside the domain, where the
    /// Lagrange closed forms divide by zero (probability n/p).
    ChallengeInDomain,
    /// The SRS cannot commit to a polynomial of the circuit's size.
    SrsTooSmall {
        /// Highest degree the protocol commits to.
        needed: usize,
        /// Highest degree the SRS supports.
        have: usize,
    },
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
            PlonkError::ChallengeInDomain => {
                write!(f, "the evaluation challenge fell inside the domain")
            }
            PlonkError::SrsTooSmall { needed, have } => {
                write!(f, "SRS supports degree {have}, the circuit needs {needed}")
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

/// Values on the n rows → coefficient form, in the same allocation.
fn into_coefficients<F: PrimeField>(
    domain: &Radix2Domain<F>,
    mut evals: Vec<F>,
) -> DensePolynomial<F> {
    domain.ifft_in_place(&mut evals);
    DensePolynomial::new(evals)
}

/// `[p(τ)]₁` for the `p` taking `evals` on the n rows, over the Lagrange
/// half of `srs`.
fn commit_evaluations<E: Engine>(
    srs: &Srs<E>,
    evals: &[E::Fr],
) -> Result<Commitment<E>, PlonkError> {
    srs.commit_evaluations(evals).ok_or(PlonkError::SrsTooSmall {
        needed: evals.len().saturating_sub(1),
        have: srs.g1_lagrange.len().saturating_sub(1),
    })
}

/// `p` on the 4n coset.
fn coset_eval<F: PrimeField>(domain4: &Radix2Domain<F>, p: &DensePolynomial<F>) -> Vec<F> {
    let mut buf = Vec::with_capacity(domain4.size());
    buf.extend_from_slice(p.coeffs());
    buf.resize(domain4.size(), F::zero());
    domain4.coset_fft_in_place(&mut buf);
    buf
}

/// `PI(x_j) = Σ −vᵢ·Lᵢ(x_j)` on row `j` of the 4n coset, `public` holding
/// `(row i, vᵢ)`. `Lᵢ(x) = L₁(x/ωⁱ)` and `ω = ω₄⁴`, so `Lᵢ` on the coset is
/// the `L₁` table read 4i slots back: one multiplication per public row.
fn public_input_on_coset<F: PrimeField>(l1_coset: &[F], public: &[(usize, F)], j: usize) -> F {
    // The table has 4n slots, and i < n; 4n is 2^k or 3·2^k, so the index
    // wraps by remainder.
    let len = l1_coset.len();
    public.iter().fold(F::zero(), |acc, &(row, v)| {
        acc - v * l1_coset[(j + len - 4 * row) % len]
    })
}

impl<F: PrimeField> Preprocessed<F> {
    fn new(circuit: &PlonkCircuit<F>) -> Result<Self, ArithmetizeError> {
        let n = circuit.n;
        let (Some(domain), Some(domain4)) =
            (Radix2Domain::<F>::new(n), Radix2Domain::<F>::new(4 * n))
        else {
            return Err(ArithmetizeError::TooManyGates { gates: n });
        };
        let column = |evals: &Vec<F>| {
            let poly = into_coefficients(&domain, evals.clone());
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
        let zh = [gn, gn * i, -gn, -(gn * i)].map(|v| v - F::one());
        // One inversion for the four 1/Z_H and 1/n (n < p).
        let mut inv = [zh[0], zh[1], zh[2], zh[3], F::from_u64(n as u64)];
        batch_inverse(&mut inv);
        let [zh_inv @ .., n_inv] = inv;
        // L₁(x) = Z_H(x) / (n·(x − 1)).
        let l1_numerators = zh.map(|v| v * n_inv);
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
        Ok(Preprocessed {
            domain,
            domain4,
            selectors,
            sigmas,
            l1_coset,
            zh_inv,
        })
    }
}

/// Runs the PLONK setup over `r1cs`: arithmetizes, interpolates and
/// extends the circuit columns, samples the SRS (one τ, in the monomial
/// and the Lagrange basis of the n rows), and commits the columns from
/// their values.
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
    let pre = Preprocessed::new(&circuit)?;
    if pool::cancellation_pending() {
        return Err(PlonkError::Cancelled);
    }
    // Wires, accumulator, quotient pieces, circuit columns and opening
    // witnesses all have degree below n: n points in either basis cover
    // them.
    let srs = Srs::<E>::generate_for_domain(&pre.domain, rng);
    if pool::cancellation_pending() {
        return Err(PlonkError::Cancelled);
    }
    let commit = |evals: &Vec<E::Fr>| commit_evaluations(&srs, evals);
    let PlonkCircuit { q_l, q_r, q_o, q_m, q_c, sigma: [s1, s2, s3], .. } = &circuit;
    let q_commits = [commit(q_l)?, commit(q_r)?, commit(q_o)?, commit(q_m)?, commit(q_c)?];
    let sigma_commits = [commit(s1)?, commit(s2)?, commit(s3)?];
    if pool::cancellation_pending() {
        return Err(PlonkError::Cancelled);
    }
    let vk = PlonkVerifyingKey {
        n: circuit.n,
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
    /// point of either basis, plus the field elements of the arithmetized
    /// columns and of the preprocessed tables.
    pub fn size_bytes(&self) -> usize {
        let pre = &self.pre;
        let columns = pre.selectors.iter().chain(&pre.sigmas);
        let tables: usize = columns.map(|c| c.poly.coeffs().len() + c.coset.len()).sum();
        let elements = 8 * self.circuit.n + tables + pre.l1_coset.len() + pre.zh_inv.len();
        let coordinate = std::mem::size_of::<<E::G1 as zkperf_ec::CurveParams>::Base>();
        let points = self.srs.g1_powers.len() + self.srs.g1_lagrange.len();
        points * 2 * coordinate + elements * std::mem::size_of::<E::Fr>()
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

/// The transcript challenges both sides' round-5 algebra reads.
struct Challenges<F> {
    beta: F,
    gamma: F,
    alpha: F,
    zeta: F,
    nu: F,
}

/// What prover and verifier both derive from the challenges and the six
/// evaluations: the scalar on each polynomial (or commitment) batched into
/// the opening at ζ, and the value their combination takes there.
struct ZetaCombination<F> {
    scalars: [F; COMBINED_AT_ZETA],
    value: F,
}

/// `ω` generates the domain of `vk.n` rows. `None` when ζ lies in that
/// domain, where the Lagrange closed forms divide by zero.
fn zeta_combination<E: Engine>(
    vk: &PlonkVerifyingKey<E>,
    omega: E::Fr,
    public_values: &[E::Fr],
    challenges: &Challenges<E::Fr>,
    evals: &[E::Fr; 6],
) -> Option<ZetaCombination<E::Fr>> {
    let Challenges { beta, gamma, alpha, zeta, nu } = *challenges;
    let [a, b, c, s1, s2, z_omega] = *evals;
    let [k0, k1, k2] = vk.coset_ks;
    let one = E::Fr::one();

    // Z_H(ζ), then L₁(ζ) and PI(ζ) = Σ −vᵢ·Lᵢ(ζ) from
    // Lᵢ(ζ) = ωⁱ·Z_H(ζ)/(n·(ζ − ωⁱ)): one inversion for n, ζ − 1 and every
    // ζ − ωⁱ, in which a zero stays zero.
    let zeta_n = zeta.pow(&BigUint::from_u64(vk.n as u64));
    let zh = zeta_n - one;
    let roots: Vec<E::Fr> = vk
        .public_rows
        .iter()
        .map(|&row| omega.pow(&BigUint::from_u64(row as u64)))
        .collect();
    let mut inv = vec![E::Fr::from_u64(vk.n as u64), zeta - one];
    inv.extend(roots.iter().map(|&w| zeta - w));
    batch_inverse(&mut inv);
    if zh.is_zero() || inv.iter().any(Field::is_zero) {
        return None;
    }
    let zh_over_n = zh * inv[0];
    let l1 = zh_over_n * inv[1];
    let weighted = roots.iter().zip(&inv[2..]).zip(public_values);
    let pi = zh_over_n * weighted.fold(E::Fr::zero(), |acc, ((&w, &d), &v)| acc - v * w * d);

    let alpha2_l1 = alpha.square() * l1;
    let identity = (a + beta * k0 * zeta + gamma)
        * (b + beta * k1 * zeta + gamma)
        * (c + beta * k2 * zeta + gamma);
    let sigma = alpha * (a + beta * s1 + gamma) * (b + beta * s2 + gamma) * z_omega;
    // r = Σ scalarᵢ·pᵢ + r₀ over the first ten polynomials, and r(ζ) = 0.
    let r0 = pi - alpha2_l1 - sigma * (c + gamma);
    let nu2 = nu.square();
    let [nu3, nu4] = [nu2 * nu, nu2.square()];
    let nu5 = nu4 * nu;
    Some(ZetaCombination {
        scalars: [
            a,
            b,
            c,
            a * b,
            one,
            alpha * identity + alpha2_l1,
            -(sigma * beta),
            -zh,
            -(zh * zeta_n),
            -(zh * zeta_n.square()),
            nu,
            nu2,
            nu3,
            nu4,
            nu5,
        ],
        value: nu * a + nu2 * b + nu3 * c + nu4 * s1 + nu5 * s2 - r0,
    })
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
/// row by row on the 4n coset — eight rows per step in the field's lanes
/// when it has them. The 4n-sized buffers die here, before the commitment
/// and opening MSMs allocate theirs.
fn quotient<F: PrimeField>(
    circuit: &PlonkCircuit<F>,
    pre: &Preprocessed<F>,
    [a, b, c, z]: [&DensePolynomial<F>; 4],
    public_values: &[F],
    [beta, gamma, alpha]: [F; 3],
) -> DensePolynomial<F> {
    let domain4 = &pre.domain4;
    let [a4, b4, c4, z4] = [a, b, c, z].map(|p| coset_eval(domain4, p));
    let rows = QuotientRows {
        wires: [&a4, &b4, &c4, &z4],
        selectors: pre.selectors.each_ref().map(|col| col.coset.as_slice()),
        sigmas: pre.sigmas.each_ref().map(|col| col.coset.as_slice()),
        l1: &pre.l1_coset,
        zh_inv: pre.zh_inv,
        public: circuit.public_rows.iter().copied().zip(public_values.iter().copied()).collect(),
        beta_k: circuit.coset_ks.map(|k| beta * k),
        challenges: [beta, gamma, alpha, alpha.square()],
    };
    let (g, w4) = (domain4.coset_shift(), domain4.group_gen());
    let lanes = F::lanes();
    let mut t = vec![F::zero(); domain4.size()];
    pool::parallel_chunks_mut(&mut t, ROW_GRAIN, |ci, chunk| {
        let start = ci * ROW_GRAIN;
        let x = g * domain4.element(start);
        match lanes.filter(|_| chunk.len().is_multiple_of(8)) {
            Some(lanes) => rows.in_lanes(lanes, chunk, start, x, w4),
            None => rows.scalar(chunk, start, x, w4),
        }
    });
    // The transform brings its own 4n rows of scratch: the four inputs
    // go first.
    drop([a4, b4, c4, z4]);
    domain4.coset_ifft_in_place(&mut t);
    DensePolynomial::new(t)
}

/// What the quotient's rows read: the wires `a, b, c, z` and the circuit
/// columns on the 4n coset (an all-zero column has no table and
/// contributes nothing), `L₁` and `1/Z_H` there, the public rows, and the
/// challenges `β, γ, α, α²` with `β·kᵢ`.
struct QuotientRows<'a, F: PrimeField> {
    wires: [&'a [F]; 4],
    selectors: [&'a [F]; 5],
    sigmas: [&'a [F]; 3],
    l1: &'a [F],
    zh_inv: [F; 4],
    public: Vec<(usize, F)>,
    beta_k: [F; 3],
    challenges: [F; 4],
}

impl<F: PrimeField> QuotientRows<'_, F> {
    /// Rows `start..start + chunk.len()` one at a time, `x` the coset point
    /// of the first.
    fn scalar(&self, chunk: &mut [F], start: usize, mut x: F, w4: F) {
        let [a4, b4, c4, z4] = self.wires;
        let [ql, qr, qo, qm, qc] = self.selectors;
        let [s1, s2, s3] = self.sigmas;
        let [beta, gamma, alpha, alpha2] = self.challenges;
        let beta_k = self.beta_k;
        let m = a4.len();
        let term = |col: &[F], j: usize, v: F| col.get(j).map_or_else(F::zero, |&q| q * v);
        for (k, slot) in chunk.iter_mut().enumerate() {
            let j = start + k;
            let (a, b, c, z) = (a4[j], b4[j], c4[j], z4[j]);
            let gate = term(ql, j, a)
                + term(qr, j, b)
                + term(qo, j, c)
                + term(qm, j, a * b)
                + qc.get(j).copied().unwrap_or_else(F::zero)
                + public_input_on_coset(self.l1, &self.public, j);
            // z(ωx) on the coset is z four slots on: ω = ω₄⁴.
            let perm1 = z
                * (a + beta_k[0] * x + gamma)
                * (b + beta_k[1] * x + gamma)
                * (c + beta_k[2] * x + gamma)
                - z4[(j + 4) % m]
                    * (a + beta * s1[j] + gamma)
                    * (b + beta * s2[j] + gamma)
                    * (c + beta * s3[j] + gamma);
            let perm2 = (z - F::one()) * self.l1[j];
            *slot = (gate + alpha * perm1 + alpha2 * perm2) * self.zh_inv[k % 4];
            x *= w4;
        }
    }

    /// The same rows eight at a time: lane `i` of a step holds row
    /// `j + i`, the coset points run as `x·w4ⁱ` advanced by `w4⁸`, and the
    /// period-4 `1/Z_H` is one vector (a chunk starts at phase 0, a step
    /// spans two periods). Every row takes the scalar body's value;
    /// `chunk.len()` is a multiple of eight.
    fn in_lanes(&self, lanes: Lanes<F>, chunk: &mut [F], start: usize, x: F, w4: F) {
        let [a4, b4, c4, z4] = self.wires;
        let [ql, qr, qo, qm, qc] = self.selectors;
        let [s1, s2, s3] = self.sigmas;
        let [beta, gamma, alpha, alpha2] = self.challenges.map(|v| lanes.splat(v));
        let beta_k = self.beta_k.map(|v| lanes.splat(v));
        let (zero, one) = (lanes.splat(F::zero()), lanes.splat(F::one()));
        let m = a4.len();
        // Eight slots of `col` from `j` on, wrapping past its end.
        let at = |col: &[F], j: usize| -> Vector<F> {
            match col.get(j..j + 8) {
                Some(run) => lanes.load(run),
                None => lanes.load(&std::array::from_fn::<F, 8, _>(|i| col[(j + i) % col.len()])),
            }
        };
        let [z0, z1, z2, z3] = self.zh_inv;
        let zh_inv = lanes.load(&[z0, z1, z2, z3, z0, z1, z2, z3]);
        let mut xs = [x; 8];
        lanes.mul_powers(&mut xs, F::one(), w4);
        let mut x = lanes.load(&xs);
        let w4_2 = lanes.splat(w4) * lanes.splat(w4);
        let w4_4 = w4_2 * w4_2;
        let w4_8 = w4_4 * w4_4;
        for (step, out) in chunk.chunks_exact_mut(8).enumerate() {
            let j = start + 8 * step;
            let (a, b, c, z) = (at(a4, j), at(b4, j), at(c4, j), at(z4, j));
            let mut gate = zero;
            for (col, v) in [(ql, a), (qr, b), (qo, c), (qm, a * b)] {
                if !col.is_empty() {
                    gate = gate + at(col, j) * v;
                }
            }
            if !qc.is_empty() {
                gate = gate + at(qc, j);
            }
            // PI(x) = Σ −vᵢ·Lᵢ(x), Lᵢ the L₁ table 4i slots back.
            for &(row, v) in &self.public {
                gate = gate - lanes.splat(v) * at(self.l1, (j + m - 4 * row) % m);
            }
            let perm1 = z
                * (a + beta_k[0] * x + gamma)
                * (b + beta_k[1] * x + gamma)
                * (c + beta_k[2] * x + gamma)
                - at(z4, (j + 4) % m)
                    * (a + beta * at(s1, j) + gamma)
                    * (b + beta * at(s2, j) + gamma)
                    * (c + beta * at(s3, j) + gamma);
            let perm2 = (z - one) * at(self.l1, j);
            ((gate + alpha * perm1 + alpha2 * perm2) * zh_inv).store(out);
            x = x * w4_8;
        }
    }
}

/// Produces a PLONK proof for the full R1CS `witness`.
///
/// # Errors
///
/// Returns [`PlonkError::WitnessLength`] when the witness was generated
/// for a different circuit, [`PlonkError::UnsatisfiedWitness`] when it does
/// not satisfy this one, [`PlonkError::SrsTooSmall`] when the key's SRS
/// cannot hold the circuit, and [`PlonkError::Cancelled`] when the ambient
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
    // Every polynomial the protocol commits to has fewer than n
    // coefficients, or n values on the rows; checked once for both halves
    // of the SRS so no later commitment can come up short.
    let points = pk.srs.g1_powers.len().min(pk.srs.g1_lagrange.len());
    if points < n {
        return Err(PlonkError::SrsTooSmall {
            needed: n - 1,
            have: points.saturating_sub(1),
        });
    }
    let domain = &pre.domain;
    let omega = domain.group_gen();

    let wires = circuit.wire_columns(witness);
    let pi_values = circuit.public_values(witness);

    // Round 1: the wires, committed from their values on the rows.
    let commit = |evals: &Vec<E::Fr>| commit_evaluations(&pk.srs, evals);
    let [a, b, c] = &wires;
    let wire_commits = [commit(a)?, commit(b)?, commit(c)?];

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

    // Round 2: permutation accumulator z, committed the same way. The
    // rounds from here on read coefficient forms, which take the place of
    // the four value vectors.
    let z = permutation_accumulator(circuit, domain, &wires, beta, gamma)?;
    let z_commit = commit(&z)?;
    transcript.absorb_point(&z_commit.0);
    let alpha = transcript.challenge();
    let [a_poly, b_poly, c_poly] = wires.map(|col| into_coefficients(domain, col));
    let z_poly = into_coefficients(domain, z);

    if pool::cancellation_pending() {
        return Err(PlonkError::Cancelled);
    }

    // Round 3: the quotient, in three pieces of n coefficients.
    let t_poly = quotient(
        circuit,
        pre,
        [&a_poly, &b_poly, &c_poly, &z_poly],
        &pi_values,
        [beta, gamma, alpha],
    );
    if pool::cancellation_pending() {
        return Err(PlonkError::Cancelled);
    }
    // Exact division leaves degree 4(n − 1) − n = 3n − 4 (z·a·b·c less
    // Z_H); anything beyond means the gate or permutation identity failed
    // on the domain.
    if t_poly.degree() > 3 * n - 4 {
        return Err(PlonkError::UnsatisfiedWitness);
    }
    let mut pieces = t_poly.coeffs().chunks(n);
    let t_polys: [DensePolynomial<E::Fr>; 3] = std::array::from_fn(|_| {
        DensePolynomial::new(pieces.next().map_or_else(Vec::new, <[E::Fr]>::to_vec))
    });
    drop(t_poly);
    let t_commits = t_polys.each_ref().map(|p| pk.srs.commit(p));
    for c in &t_commits {
        transcript.absorb_point(&c.0);
    }
    let zeta = transcript.challenge();

    // Round 4: five evaluations at ζ and z(ζω), one task each.
    let [s1, s2, s3] = pre.sigmas.each_ref().map(|col| &col.poly);
    let at_zeta = [&a_poly, &b_poly, &c_poly, s1, s2];
    let zeta_omega = zeta * omega;
    let mut evals = [E::Fr::zero(); 6];
    pool::parallel_fill(&mut evals, 1, |i| match at_zeta.get(i) {
        Some(p) => p.evaluate(zeta),
        None => z_poly.evaluate(zeta_omega),
    });
    for v in &evals {
        transcript.absorb(*v);
    }
    let nu = transcript.challenge();

    // Round 5: r and the ν-batch in one pass over the coefficient forms,
    // then the two opening witnesses.
    let challenges = Challenges { beta, gamma, alpha, zeta, nu };
    let combination = zeta_combination(&pk.vk, omega, &pi_values, &challenges, &evals)
        .ok_or(PlonkError::ChallengeInDomain)?;
    let [ql, qr, qo, qm, qc] = pre.selectors.each_ref().map(|col| &col.poly);
    let [t_lo, t_mid, t_hi] = &t_polys;
    let combined_polys: [_; COMBINED_AT_ZETA] = [
        ql, qr, qo, qm, qc, &z_poly, s3, t_lo, t_mid, t_hi, &a_poly, &b_poly, &c_poly, s1, s2,
    ];
    let mut combined = vec![E::Fr::zero(); n];
    pool::parallel_chunks_mut(&mut combined, ROW_GRAIN, |ci, chunk| {
        for (p, &scalar) in combined_polys.iter().zip(&combination.scalars) {
            let coeffs = p.coeffs().get(ci * ROW_GRAIN..).unwrap_or(&[]);
            for (acc, &coeff) in chunk.iter_mut().zip(coeffs) {
                *acc += coeff * scalar;
            }
        }
    });
    combined[0] -= combination.value;
    let (remainder, w_zeta) = pk.srs.open(&DensePolynomial::new(combined), zeta);
    debug_assert!(remainder.is_zero(), "the batch at ζ vanishes there");
    let (_, w_zeta_omega) = pk.srs.open(&z_poly, zeta_omega);

    Ok(PlonkProof {
        wire_commits,
        z_commit,
        t_commits,
        evals,
        w_zeta,
        w_zeta_omega,
    })
}

/// Verifies a PLONK proof against the public-input values (the circuit's
/// public witness prefix `[1, outputs…, public inputs…]`). A key whose
/// public fields describe no domain of this field is rejected like a bad
/// proof.
pub fn plonk_verify<E: Engine>(
    vk: &PlonkVerifyingKey<E>,
    proof: &PlonkProof<E>,
    public_values: &[E::Fr],
) -> bool
where
    <E::G1 as zkperf_ec::CurveParams>::Base: PrimeField,
{
    let _g = trace::region_profile("plonk_verify");
    let n = vk.n;
    if public_values.len() != vk.public_rows.len()
        || n < 4
        || vk.public_rows.iter().any(|&row| row >= n)
    {
        return false;
    }
    // The prover's domain takes ω from the same function; `None` unless n
    // is 2^k or 3·2^k within the field's subgroups.
    let Some(omega) = root_of_unity::<E::Fr>(n) else {
        return false;
    };

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
    for c in &proof.t_commits {
        transcript.absorb_point(&c.0);
    }
    let zeta = transcript.challenge();
    for v in &proof.evals {
        transcript.absorb(*v);
    }
    let nu = transcript.challenge();
    transcript.absorb_point(&proof.w_zeta.0);
    transcript.absorb_point(&proof.w_zeta_omega.0);
    let u = transcript.challenge();

    let challenges = Challenges { beta, gamma, alpha, zeta, nu };
    let Some(combination) =
        zeta_combination(vk, omega, public_values, &challenges, &proof.evals)
    else {
        return false; // ζ landed in the domain (negligible probability)
    };
    let z_omega = proof.evals[5];

    // e(W_ζ + u·W_ζω, [τ]₂) = e(ζ·W_ζ + uζω·W_ζω + F − E, [1]₂), where
    // F = [r − r₀] + ν[a] + … + ν⁵[S_σ2] + u[z] and E carries the claimed
    // values; the right-hand G1 point is one MSM.
    let [ql, qr, qo, qm, qc] = vk.q_commits;
    let [s1, s2, s3] = vk.sigma_commits;
    let [a, b, c] = proof.wire_commits;
    let [t_lo, t_mid, t_hi] = proof.t_commits;
    let combined_commits: [_; COMBINED_AT_ZETA] = [
        ql, qr, qo, qm, qc, proof.z_commit, s3, t_lo, t_mid, t_hi, a, b, c, s1, s2,
    ];
    let mut points: Vec<_> = combined_commits.iter().map(|c| c.0).collect();
    let mut scalars = combination.scalars.to_vec();
    scalars[Z_SLOT] += u;
    points.extend([Affine::generator(), proof.w_zeta.0, proof.w_zeta_omega.0]);
    scalars.extend([-(combination.value + u * z_omega), zeta, u * zeta * omega]);
    let rhs = msm(&points, &scalars);
    let lhs = proof.w_zeta.0.to_projective() + proof.w_zeta_omega.0.to_projective() * u;
    vk.srs.pairing_check(&rhs.to_affine(), &lhs.neg().to_affine())
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
        for rows in [4usize, 32, 512, 6, 12, 96, 768] {
            let r1cs_rows = rows - 3; // plus three public-input gates
            let circuit = PlonkCircuit::from_r1cs(exponentiate::<Fr>(r1cs_rows).r1cs()).unwrap();
            let pre = Preprocessed::new(&circuit).unwrap();
            let (n, m) = (circuit.n, 4 * circuit.n);
            assert_eq!((n, pre.domain4.size()), (rows, m));

            let mut l1_evals = vec![Fr::zero(); n];
            l1_evals[0] = Fr::one();
            let l1 = coset_eval(&pre.domain4, &into_coefficients(&pre.domain, l1_evals));
            assert_eq!(pre.l1_coset, l1, "L₁ at n = {n}");

            let mut x = pre.domain4.coset_shift();
            for j in 0..m {
                let zh = pre.domain.eval_vanishing(x);
                assert_eq!(pre.zh_inv[j % 4], zh.inverse().unwrap(), "1/Z_H at row {j}");
                x *= pre.domain4.group_gen();
            }
        }
    }

    /// `PI` on the coset the way the prover used to get it: a length-n
    /// vector that is zero off the public rows, interpolated and extended.
    #[test]
    fn closed_form_public_input_matches_interpolate_and_extend() {
        let mut rng = zkperf_ff::test_rng();
        for rows in [4usize, 32, 512, 6, 12, 96, 768] {
            let circuit = PlonkCircuit::from_r1cs(exponentiate::<Fr>(rows - 3).r1cs()).unwrap();
            let pre = Preprocessed::new(&circuit).unwrap();
            let n = circuit.n;
            assert_eq!(n, rows);
            for count in [1, 3, n / 2] {
                // Rows spread over the domain, the last one included.
                let rows: Vec<usize> = (1..=count).map(|i| i * (n / count) - 1).collect();
                let public: Vec<(usize, Fr)> =
                    rows.into_iter().map(|row| (row, Fr::random(&mut rng))).collect();
                let mut evals = vec![Fr::zero(); n];
                for &(row, v) in &public {
                    evals[row] = -v;
                }
                let transformed = coset_eval(&pre.domain4, &into_coefficients(&pre.domain, evals));
                let closed: Vec<Fr> = (0..4 * n)
                    .map(|j| public_input_on_coset(&pre.l1_coset, &public, j))
                    .collect();
                assert_eq!(closed, transformed, "n = {n}, {count} public rows");
            }
        }
    }

    /// The public rows' `L_i` on the coset are the `L₁` table read 4i slots
    /// back, wrapping at 4n; on a `3·2^k` domain 4n is no power of two, so a
    /// wrap by mask reads the wrong slots and the quotient is no polynomial.
    #[test]
    fn three_public_rows_prove_and_verify_on_a_three_times_power_of_two_domain() {
        let mut rng = zkperf_ff::test_rng();
        for (exponent, n) in [(6, 12), (45, 48), (93, 96)] {
            let circuit = exponentiate::<Fr>(exponent);
            let pk = plonk_setup::<Bn254, _>(circuit.r1cs(), &mut rng).unwrap();
            assert_eq!((pk.circuit.n, pk.circuit.public_rows.len()), (n, 3));
            let w = circuit.generate_witness(&[Fr::from_u64(3)], &[]).unwrap();
            let proof = plonk_prove(&pk, w.full()).unwrap();
            assert!(plonk_verify(&pk.vk, &proof, w.public()), "n = {n}");
            let mut wrong = w.public().to_vec();
            wrong[1] += Fr::one();
            assert!(!plonk_verify(&pk.vk, &proof, &wrong), "n = {n}");
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
        // The verifier's MSM takes [q_R] and [q_C] as identity points.
        assert!(pk.vk.q_commits[1].0.infinity && pk.vk.q_commits[4].0.infinity);
        let w = exp.generate_witness(&[Fr::from_u64(3)], &[]).unwrap();
        let proof = plonk_prove(&pk, w.full()).unwrap();
        assert!(plonk_verify(&pk.vk, &proof, w.public()));

        let poseidon = merkle_membership_poseidon::<Fr>(1);
        let pk = plonk_setup::<Bn254, _>(poseidon.r1cs(), &mut rng).unwrap();
        assert!(!pk.pre.selectors[1].coset.is_empty());
        assert!(pk.pre.selectors[4].coset.is_empty());
    }

    #[test]
    fn the_scalar_quotient_rows_prove_what_the_lanes_prove() {
        // On a host with AVX-512 IFMA the quotient rows run in lanes;
        // `with_scalar_body` drives their scalar fallback, over three
        // chunks of rows (4n = 3·2^10) with two all-zero columns.
        let mut rng = zkperf_ff::test_rng();
        let exp = exponentiate::<Fr>(500);
        let w = exp.generate_witness(&[Fr::from_u64(3)], &[]).unwrap();
        let pk = plonk_setup::<Bn254, _>(exp.r1cs(), &mut rng).unwrap();
        let prove = || plonk_prove(&pk, w.full()).unwrap();
        assert_eq!(prove(), zkperf_ff::lanes::with_scalar_body(prove));
    }

    #[test]
    fn key_size_counts_srs_and_tables() {
        let mut rng = zkperf_ff::test_rng();
        let pk = plonk_setup::<Bn254, _>(exponentiate::<Fr>(12).r1cs(), &mut rng).unwrap();
        let n = pk.circuit.n;
        assert_eq!(pk.srs.max_degree(), n - 1);
        assert_eq!(pk.srs.g1_lagrange.len(), n);
        assert_eq!(pk.vk.srs.max_degree(), 0);
        assert!(pk.vk.srs.g1_lagrange.is_empty());
        // n powers and n Lagrange points, 8n column values, 6 non-zero
        // polynomials with their 4n tables, L₁ and the four 1/Z_H values.
        let elements = 8 * n + 6 * 5 * n + 4 * n + 4;
        assert_eq!(pk.size_bytes(), 2 * n * 64 + elements * 32);
    }

    #[test]
    fn unsatisfied_witness_is_a_typed_error_not_a_proof() {
        // The last wire of the multiplication chain is wrong but the copy
        // constraints still close: only the degree check on t, taken
        // before the split into pieces, can notice.
        let circuit = exponentiate::<Fr>(12);
        let mut rng = zkperf_ff::test_rng();
        let pk = plonk_setup::<Bn254, _>(circuit.r1cs(), &mut rng).unwrap();
        let w = circuit.generate_witness(&[Fr::from_u64(3)], &[]).unwrap();
        let mut tampered = w.full().to_vec();
        *tampered.last_mut().unwrap() += Fr::one();
        assert_eq!(plonk_prove(&pk, &tampered), Err(PlonkError::UnsatisfiedWitness));
    }

    #[test]
    fn a_key_with_a_short_srs_is_a_typed_error_not_a_panic() {
        let circuit = exponentiate::<Fr>(12);
        let mut rng = zkperf_ff::test_rng();
        let mut pk = plonk_setup::<Bn254, _>(circuit.r1cs(), &mut rng).unwrap();
        let n = pk.circuit.n;
        let w = circuit.generate_witness(&[Fr::from_u64(3)], &[]).unwrap();
        let full = pk.srs.clone();
        let too_small = |have| Err(PlonkError::SrsTooSmall { needed: n - 1, have });

        // Either half one point short, and no Lagrange half at all (what
        // `Srs::generate` makes).
        pk.srs.g1_powers.truncate(n - 1);
        assert_eq!(plonk_prove(&pk, w.full()), too_small(n - 2));
        pk.srs = full.clone();
        pk.srs.g1_lagrange.truncate(n - 1);
        assert_eq!(plonk_prove(&pk, w.full()), too_small(n - 2));
        pk.srs = Srs::generate(n - 1, &mut rng);
        assert_eq!(plonk_prove(&pk, w.full()), too_small(0));

        pk.srs = full;
        assert!(plonk_prove(&pk, w.full()).is_ok());
    }

    #[test]
    fn hostile_verifying_keys_are_rejected_without_a_panic() {
        let circuit = exponentiate::<Fr>(12);
        let mut rng = zkperf_ff::test_rng();
        let pk = plonk_setup::<Bn254, _>(circuit.r1cs(), &mut rng).unwrap();
        let w = circuit.generate_witness(&[Fr::from_u64(3)], &[]).unwrap();
        let proof = plonk_prove(&pk, w.full()).unwrap();
        assert!(plonk_verify(&pk.vk, &proof, w.public()));
        for n in [0, 3, 1 << 40] {
            let vk = PlonkVerifyingKey { n, ..pk.vk.clone() };
            assert!(!plonk_verify(&vk, &proof, w.public()), "n = {n}");
        }
        let mut vk = pk.vk.clone();
        vk.public_rows[1] = vk.n;
        assert!(!plonk_verify(&vk, &proof, w.public()), "public row outside the domain");
    }

    /// Work as counts that repeat exactly, at n = 2^6.
    #[test]
    fn a_proof_is_nine_msms_and_nine_transforms_and_a_verify_one_pairing_product() {
        let circuit = exponentiate::<Fr>((1 << 6) - 3);
        let mut rng = zkperf_ff::test_rng();
        let calls = |report: &trace::SessionReport, region: &str| {
            report.region(region).map_or(0, |r| r.calls)
        };
        // A session sees the thread it was opened on.
        let _inline = pool::SerialScope::enter();

        // Setup draws τ and nothing else, and commits the six columns that
        // are not zero everywhere (q_R and q_C are) from their values.
        let mut after_tau = zkperf_ff::test_rng();
        let _tau = Fr::random(&mut after_tau);
        let session = trace::Session::begin();
        let pk = plonk_setup::<Bn254, _>(circuit.r1cs(), &mut rng).unwrap();
        let report = session.finish();
        assert_eq!(rng.gen::<u64>(), after_tau.gen::<u64>());
        assert_eq!(calls(&report, "msm"), 6);
        // Eight columns to coefficient form, six of them on to the coset.
        assert_eq!(calls(&report, "fft"), 14);
        let n = pk.circuit.n;
        assert_eq!(n, 1 << 6);
        // Every MSM reads a prefix of n points, in one basis or the other.
        assert_eq!((pk.srs.g1_powers.len(), pk.srs.g1_lagrange.len()), (n, n));
        let w = circuit.generate_witness(&[Fr::from_u64(3)], &[]).unwrap();

        let session = trace::Session::begin();
        let proof = plonk_prove(&pk, w.full()).unwrap();
        let report = session.finish();
        assert_eq!(calls(&report, "msm"), 9);
        // 4 size-n inverse NTTs, 4 size-4n coset NTTs, 1 inverse coset NTT.
        assert_eq!(calls(&report, "fft"), 9);

        // The key prepares its G2 lines on first use.
        assert!(plonk_verify(&pk.vk, &proof, w.public()));
        let session = trace::Session::begin();
        assert!(plonk_verify(&pk.vk, &proof, w.public()));
        let report = session.finish();
        assert_eq!(calls(&report, "msm"), 1);
        assert_eq!(calls(&report, "scalar_mul"), 1); // u·W_ζω
        assert_eq!(calls(&report, "miller_loop"), 2); // one product of two pairs
        assert_eq!(calls(&report, "final_exp"), 1);
    }

    #[test]
    fn vanishing_permutation_factor_is_a_typed_error() {
        let circuit = exponentiate::<Fr>(6);
        let plonk = PlonkCircuit::from_r1cs(circuit.r1cs()).unwrap();
        let domain = Radix2Domain::<Fr>::new(plonk.n).unwrap();
        let w = circuit.generate_witness(&[Fr::from_u64(3)], &[]).unwrap();
        let cols = plonk.wire_columns(w.full());
        let beta = Fr::from_u64(7);
        // Small β and γ can vanish a factor by accident: on this 12-row
        // domain the slot labelled 2·ω⁶ = −2 meets the wire value 3, and
        // 3 + 7·(−2) + 11 = 0. A γ far from the wire values cannot.
        let gamma = Fr::from_u64(0x2545_f491_4f6c_dd1d);
        assert!(permutation_accumulator(&plonk, &domain, &cols, beta, gamma).is_ok());
        assert_eq!(
            permutation_accumulator(&plonk, &domain, &cols, beta, Fr::from_u64(11)),
            Err(PlonkError::ZeroPermutationFactor)
        );
        // γ chosen so that row 5's first denominator factor is zero.
        let gamma = -(cols[0][5] + beta * plonk.sigma[0][5]);
        assert_eq!(
            permutation_accumulator(&plonk, &domain, &cols, beta, gamma),
            Err(PlonkError::ZeroPermutationFactor)
        );
    }
}
