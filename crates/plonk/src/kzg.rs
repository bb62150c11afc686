//! KZG polynomial commitments over a pairing engine.
//!
//! The G1 side of the SRS comes in two bases, both from one draw of τ. The
//! monomial half `[τⁱ]₁` commits to a polynomial given by its coefficients
//! ([`Srs::commit`], [`Srs::open`]). The Lagrange half `[Lᵢ(τ)]₁`, over one
//! fixed domain, commits to a polynomial given by its values on that domain
//! ([`Srs::commit_evaluations`]): `Σ vᵢ·[Lᵢ(τ)]₁ = [p(τ)]₁` for the `p` that
//! interpolates `v`, so both routes reach the same group element and the
//! caller picks the one whose input it already holds. Data that is born on
//! the domain — PLONK's wires, accumulator, selectors and σ columns — keeps
//! the shape it was born with (zero and padding rows, short repeated
//! values), which the MSM skips or finishes early; interpolating first
//! spreads it into n full-width coefficients. A polynomial that is born as
//! coefficients (a quotient piece, an opening witness) has no evaluation
//! form to commit from and stays on the powers. The domain has order `2^k`
//! or `3·2^k` — `Lᵢ(τ) = ωⁱ·(τⁿ − 1)/(n·(τ − ωⁱ))` on any multiplicative
//! subgroup — so the Lagrange half has one point per PLONK row, and the
//! rows are not rounded up to a power of two.

use std::sync::OnceLock;

use rand::Rng;

use zkperf_ec::{msm, Affine, Engine, FixedBaseTable, Projective};
use zkperf_ff::Field;
use zkperf_poly::{DensePolynomial, Radix2Domain};
use zkperf_trace as trace;

/// A structured reference string `([τⁱ]₁ for i ≤ degree, [1]₂, [τ]₂)`,
/// optionally with the same τ in the Lagrange basis of one domain.
#[derive(Debug, Clone)]
pub struct Srs<E: Engine> {
    /// G1 powers of τ.
    pub g1_powers: Vec<Affine<E::G1>>,
    /// `[Lᵢ(τ)]₁` for the Lagrange basis of the domain given to
    /// [`Srs::generate_for_domain`]; empty otherwise.
    pub g1_lagrange: Vec<Affine<E::G1>>,
    /// `[1]₂`.
    pub g2: Affine<E::G2>,
    /// `[τ]₂`.
    pub g2_tau: Affine<E::G2>,
    /// Lazily cached line coefficients for the two fixed G2 points — every
    /// opening check pairs against exactly these, so the Miller-loop lines
    /// are computed once per SRS.
    prepared_g2: OnceLock<(E::G2Prepared, E::G2Prepared)>,
}

/// A commitment to a polynomial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Commitment<E: Engine>(pub Affine<E::G1>);

/// An opening witness `[q(τ)]₁` for `q = (p − p(z))/(x − z)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpeningProof<E: Engine>(pub Affine<E::G1>);

impl<E: Engine> Srs<E> {
    /// Samples a fresh SRS supporting polynomials up to `max_degree`.
    ///
    /// τ is drawn from `rng` and dropped (trusted setup).
    pub fn generate<R: Rng + ?Sized>(max_degree: usize, rng: &mut R) -> Self {
        Self::sample(max_degree + 1, None, rng)
    }

    /// Samples a fresh SRS for polynomials of degree below the size n of
    /// `domain` (of order `2^k` or `3·2^k`): n powers of τ and the n
    /// Lagrange-basis points of `domain` at the same τ, drawn from `rng`
    /// exactly as [`Srs::generate`] draws it.
    pub fn generate_for_domain<R: Rng + ?Sized>(
        domain: &Radix2Domain<E::Fr>,
        rng: &mut R,
    ) -> Self {
        Self::sample(domain.size(), Some(domain), rng)
    }

    fn sample<R: Rng + ?Sized>(
        powers: usize,
        lagrange_domain: Option<&Radix2Domain<E::Fr>>,
        rng: &mut R,
    ) -> Self {
        let _g = trace::region_profile("kzg_srs");
        let tau = loop {
            let t = E::Fr::random(rng);
            if !t.is_zero() {
                break t;
            }
        };
        let mut scalars = Vec::with_capacity(2 * powers);
        let mut acc = E::Fr::one();
        for _ in 0..powers {
            scalars.push(acc);
            acc *= tau;
        }
        if let Some(domain) = lagrange_domain {
            scalars.extend(domain.lagrange_coefficients_at(tau));
        }
        // Both halves through one table of the generator.
        let g1 = Projective::<E::G1>::generator();
        let mut g1_powers = FixedBaseTable::for_batch(&g1, scalars.len()).mul_batch(&scalars);
        let g1_lagrange = g1_powers.split_off(powers);
        // `split_off` leaves the room of both halves with the first.
        g1_powers.shrink_to_fit();
        let g2gen = Projective::<E::G2>::generator();
        Srs {
            g1_powers,
            g1_lagrange,
            g2: g2gen.to_affine(),
            g2_tau: (g2gen * tau).to_affine(),
            prepared_g2: OnceLock::new(),
        }
    }

    /// The part of the SRS an opening check reads: `[1]₁` and the two G2
    /// points (the line coefficients are prepared again on first use).
    pub fn verifier_part(&self) -> Self {
        Srs {
            g1_powers: self.g1_powers[..1].to_vec(),
            g1_lagrange: Vec::new(),
            g2: self.g2,
            g2_tau: self.g2_tau,
            prepared_g2: OnceLock::new(),
        }
    }

    fn prepared_g2(&self) -> &(E::G2Prepared, E::G2Prepared) {
        self.prepared_g2
            .get_or_init(|| (E::prepare_g2(&self.g2), E::prepare_g2(&self.g2_tau)))
    }

    /// Highest committable degree (0 for an SRS with no powers, which
    /// commits to nothing but the zero polynomial).
    pub fn max_degree(&self) -> usize {
        self.g1_powers.len().saturating_sub(1)
    }

    /// `Σ scalarsᵢ·basisᵢ` over the leading points of one half of the SRS:
    /// the one body, and the one length check, of both commit routes.
    /// `None` when that half holds fewer points than there are scalars.
    fn commit_over(basis: &[Affine<E::G1>], scalars: &[E::Fr]) -> Option<Commitment<E>> {
        let _g = trace::region_profile("kzg_commit");
        let basis = basis.get(..scalars.len())?;
        // Zero everywhere (a selector the circuit never uses): the
        // identity, with no MSM to set up.
        if scalars.iter().all(Field::is_zero) {
            return Some(Commitment(Affine::identity()));
        }
        Some(Commitment(msm(basis, scalars).to_affine()))
    }

    /// Commits to `p` as `[p(τ)]₁`.
    ///
    /// # Panics
    ///
    /// Panics if `p.degree()` exceeds the SRS.
    pub fn commit(&self, p: &DensePolynomial<E::Fr>) -> Commitment<E> {
        match Self::commit_over(&self.g1_powers, p.coeffs()) {
            Some(commitment) => commitment,
            None => panic!(
                "polynomial degree {} exceeds SRS degree {}",
                p.degree(),
                self.max_degree()
            ),
        }
    }

    /// Commits to the polynomial of degree below n that takes `evals[i]`
    /// at the i-th point of the SRS's Lagrange domain (and zero on the
    /// rows past `evals`): the same `[p(τ)]₁` as [`Srs::commit`] of the
    /// interpolated `p`, with no interpolation. `None` when the Lagrange
    /// half holds fewer than `evals.len()` points — always, for an SRS
    /// made by [`Srs::generate`].
    pub fn commit_evaluations(&self, evals: &[E::Fr]) -> Option<Commitment<E>> {
        Self::commit_over(&self.g1_lagrange, evals)
    }

    /// Opens `p` at `z`: returns `(p(z), [q(τ)]₁)`.
    pub fn open(&self, p: &DensePolynomial<E::Fr>, z: E::Fr) -> (E::Fr, OpeningProof<E>) {
        let _g = trace::region_profile("kzg_open");
        // p = q·(x − z) + p(z): the quotient of (p − p(z)) / (x − z) is q.
        let (q, y) = p.divide_by_linear(z);
        (y, OpeningProof(self.commit(&q).0))
    }

    /// Verifies that `commitment` opens to `value` at `z`:
    /// `e(C − y·G₁, G₂) = e(W, [τ]₂ − z·G₂)`.
    pub fn verify_opening(
        &self,
        commitment: &Commitment<E>,
        z: E::Fr,
        value: E::Fr,
        proof: &OpeningProof<E>,
    ) -> bool {
        let g1 = Projective::<E::G1>::generator();
        // The check e(C − yG, G₂) = e(W, [τ−z]₂) rearranged so both G2
        // inputs are the fixed SRS points: e(C − yG + zW, G₂) · e(−W, [τ]₂)
        // == 1. This moves the per-check scalar multiplication from G2 to
        // G1 and lets the pairing consume the SRS's cached line
        // coefficients.
        let acc =
            commitment.0.to_projective() + (g1 * value).neg() + proof.0.to_projective() * z;
        self.pairing_check(&acc.to_affine(), &proof.0.neg())
    }

    /// `e(p, [1]₂) · e(q, [τ]₂) == 1`: one product of two pairings against
    /// the cached lines of the SRS's G2 points.
    pub(crate) fn pairing_check(&self, p: &Affine<E::G1>, q: &Affine<E::G1>) -> bool {
        let (g2_lines, g2_tau_lines) = self.prepared_g2();
        E::multi_pairing_prepared(&[*p, *q], &[g2_lines, g2_tau_lines]).is_one()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkperf_ec::Bn254;
    use zkperf_ff::bn254::Fr;

    fn srs(deg: usize) -> Srs<Bn254> {
        let mut rng = zkperf_ff::test_rng();
        Srs::generate(deg, &mut rng)
    }

    fn poly(cs: &[u64]) -> DensePolynomial<Fr> {
        DensePolynomial::new(cs.iter().map(|&c| Fr::from_u64(c)).collect())
    }

    #[test]
    fn open_verify_roundtrip() {
        let srs = srs(8);
        let p = poly(&[5, 0, 3, 1]); // 5 + 3x² + x³
        let c = srs.commit(&p);
        let z = Fr::from_u64(7);
        let (y, w) = srs.open(&p, z);
        assert_eq!(y, p.evaluate(z));
        assert!(srs.verify_opening(&c, z, y, &w));
        // A wrong value fails.
        assert!(!srs.verify_opening(&c, z, y + Fr::one(), &w));
        // A wrong point fails.
        assert!(!srs.verify_opening(&c, z + Fr::one(), y, &w));
    }

    #[test]
    fn commitment_is_binding_across_polynomials() {
        let srs = srs(8);
        let c1 = srs.commit(&poly(&[1, 2, 3]));
        let c2 = srs.commit(&poly(&[1, 2, 4]));
        assert_ne!(c1, c2);
        // Zero polynomial commits to the identity.
        assert!(srs.commit(&DensePolynomial::zero()).0.infinity);
    }

    #[test]
    fn verifier_part_checks_openings_of_the_full_srs() {
        let srs = srs(8);
        let p = poly(&[5, 0, 3, 1]);
        let z = Fr::from_u64(7);
        let (y, w) = srs.open(&p, z);
        let part = srs.verifier_part();
        assert_eq!(part.max_degree(), 0);
        assert!(part.verify_opening(&srs.commit(&p), z, y, &w));
        assert!(!part.verify_opening(&srs.commit(&p), z, y + Fr::one(), &w));
    }

    #[test]
    #[should_panic(expected = "exceeds SRS")]
    fn oversized_polynomial_is_rejected() {
        let srs = srs(2);
        let _ = srs.commit(&poly(&[1, 2, 3, 4]));
    }

    #[test]
    fn an_srs_without_powers_or_a_lagrange_half_commits_to_zero_only() {
        let mut srs = srs(2);
        assert!(srs.g1_lagrange.is_empty());
        assert_eq!(srs.commit_evaluations(&[Fr::one()]), None);
        assert!(srs.commit_evaluations(&[]).is_some_and(|c| c.0.infinity));
        srs.g1_powers.clear();
        assert_eq!(srs.max_degree(), 0);
        assert!(srs.commit(&DensePolynomial::zero()).0.infinity);
    }

    /// Both routes reach the same group element, on the column shapes a
    /// PLONK circuit produces.
    fn evaluations_commit_like_their_interpolation<E: Engine>() {
        let mut rng = zkperf_ff::test_rng();
        for n in [4usize, 64, 1 << 10, 12, 3 << 8] {
            let domain = Radix2Domain::<E::Fr>::new(n).unwrap();
            let srs = Srs::<E>::generate_for_domain(&domain, &mut rng);
            assert_eq!((srs.g1_powers.len(), srs.g1_lagrange.len()), (n, n));
            assert!(srs.verifier_part().g1_lagrange.is_empty());

            // Σ Lᵢ = 1.
            let points = srs.g1_lagrange.iter().map(Affine::to_projective);
            let sum = points.fold(Projective::identity(), |acc, p| acc + p);
            assert_eq!(sum.to_affine(), Affine::generator(), "n = {n}");

            let constant = |v: E::Fr| vec![v; n];
            let mut single = constant(E::Fr::zero());
            single[n - 1] = E::Fr::random(&mut rng);
            let columns = [
                ("random", (0..n).map(|_| E::Fr::random(&mut rng)).collect()),
                ("all zero", constant(E::Fr::zero())),
                ("all one", constant(E::Fr::one())),
                ("all minus one", constant(-E::Fr::one())),
                ("single non-zero", single),
                ("one repeated value", constant(E::Fr::from_u64(0x2545_f491_4f6c_dd1d))),
            ];
            for (shape, evals) in columns {
                let p = DensePolynomial::interpolate(&domain, &evals);
                let from_values = srs.commit_evaluations(&evals);
                assert_eq!(from_values, Some(srs.commit(&p)), "{shape}, n = {n}");
            }
            // Rows past the slice count as zero.
            let mut prefix = constant(E::Fr::zero());
            prefix[..3].fill(E::Fr::from_u64(7));
            assert_eq!(srs.commit_evaluations(&prefix[..3]), srs.commit_evaluations(&prefix));
            assert_eq!(srs.commit_evaluations(&vec![E::Fr::one(); n + 1]), None);
        }
    }

    #[test]
    fn evaluations_commit_like_their_interpolation_on_both_curves() {
        evaluations_commit_like_their_interpolation::<Bn254>();
        evaluations_commit_like_their_interpolation::<zkperf_ec::Bls12_381>();
    }
}
