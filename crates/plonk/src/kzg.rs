//! KZG polynomial commitments over a pairing engine.

use std::sync::OnceLock;

use rand::Rng;

use zkperf_ec::{msm, Affine, Engine, FixedBaseTable, Projective};
use zkperf_ff::Field;
use zkperf_poly::DensePolynomial;
use zkperf_trace as trace;

/// A structured reference string `([τⁱ]₁ for i ≤ degree, [1]₂, [τ]₂)`.
#[derive(Debug, Clone)]
pub struct Srs<E: Engine> {
    /// G1 powers of τ.
    pub g1_powers: Vec<Affine<E::G1>>,
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
        let _g = trace::region_profile("kzg_srs");
        let tau = loop {
            let t = E::Fr::random(rng);
            if !t.is_zero() {
                break t;
            }
        };
        let mut scalars = Vec::with_capacity(max_degree + 1);
        let mut acc = E::Fr::one();
        for _ in 0..=max_degree {
            scalars.push(acc);
            acc *= tau;
        }
        let g1 = Projective::<E::G1>::generator();
        let g1_powers = FixedBaseTable::for_batch(&g1, scalars.len()).mul_batch(&scalars);
        let g2gen = Projective::<E::G2>::generator();
        Srs {
            g1_powers,
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
            g2: self.g2,
            g2_tau: self.g2_tau,
            prepared_g2: OnceLock::new(),
        }
    }

    fn prepared_g2(&self) -> &(E::G2Prepared, E::G2Prepared) {
        self.prepared_g2
            .get_or_init(|| (E::prepare_g2(&self.g2), E::prepare_g2(&self.g2_tau)))
    }

    /// Highest committable degree.
    pub fn max_degree(&self) -> usize {
        self.g1_powers.len() - 1
    }

    /// Commits to `p` as `[p(τ)]₁`.
    ///
    /// # Panics
    ///
    /// Panics if `p.degree()` exceeds the SRS.
    pub fn commit(&self, p: &DensePolynomial<E::Fr>) -> Commitment<E> {
        let _g = trace::region_profile("kzg_commit");
        assert!(
            p.is_zero() || p.degree() <= self.max_degree(),
            "polynomial degree {} exceeds SRS degree {}",
            p.degree(),
            self.max_degree()
        );
        Commitment(msm(&self.g1_powers[..p.coeffs().len().max(1)], p.coeffs()).to_affine())
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
}
