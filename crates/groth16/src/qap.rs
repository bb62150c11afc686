//! R1CS → QAP conversion helpers shared by setup and proving.
//!
//! The per-row loops (constraint evaluation, the pointwise quotient) are
//! `zkperf-pool` jobs over `ROW_GRAIN`-row chunks: one body each, which
//! the pool runs inline for a one-chunk job or under a `SerialScope`.

use zkperf_circuit::R1cs;
use zkperf_ff::PrimeField;
use zkperf_poly::Radix2Domain;
use zkperf_pool as pool;
use zkperf_trace as trace;

/// Constraint rows per pool task of the row loops.
const ROW_GRAIN: usize = 512;

/// Evaluates the QAP polynomials `uᵢ(τ), vᵢ(τ), wᵢ(τ)` for every wire `i`
/// at the toxic-waste point `τ`, using the Lagrange basis of `domain`.
///
/// Sparse: cost is proportional to the number of non-zero R1CS entries.
pub fn evaluate_matrices_at<F: PrimeField>(
    r1cs: &R1cs<F>,
    domain: &Radix2Domain<F>,
    tau: F,
) -> (Vec<F>, Vec<F>, Vec<F>) {
    let _g = trace::region_profile("qap_eval");
    let lagrange = domain.lagrange_coefficients_at(tau);
    let n = r1cs.num_wires();
    let mut u = vec![F::zero(); n];
    let mut v = vec![F::zero(); n];
    let mut w = vec![F::zero(); n];
    for (j, c) in r1cs.constraints().iter().enumerate() {
        let lj = lagrange[j];
        for &(var, coeff) in c.a.terms() {
            u[var.index()] += coeff * lj;
        }
        for &(var, coeff) in c.b.terms() {
            v[var.index()] += coeff * lj;
        }
        for &(var, coeff) in c.c.terms() {
            w[var.index()] += coeff * lj;
        }
    }
    (u, v, w)
}

/// Evaluates `⟨A_j, witness⟩, ⟨B_j, witness⟩, ⟨C_j, witness⟩` for every
/// constraint row `j`, zero-padded to the domain size.
pub fn evaluate_constraints<F: PrimeField>(
    r1cs: &R1cs<F>,
    domain: &Radix2Domain<F>,
    witness: &[F],
) -> (Vec<F>, Vec<F>, Vec<F>) {
    let _g = trace::region_profile("constraint_eval");
    let n = domain.size();
    trace::alloc(3 * n * std::mem::size_of::<F>());
    let mut a = vec![F::zero(); n];
    let mut b = vec![F::zero(); n];
    let mut c = vec![F::zero(); n];
    let rows = r1cs.constraints();
    // Each constraint row writes its own slot of a/b/c, so rows chunk
    // freely; a fixed grain keeps the decomposition thread-count-free.
    let mut views: Vec<(&mut [F], &mut [F], &mut [F])> = a[..rows.len()]
        .chunks_mut(ROW_GRAIN)
        .zip(b[..rows.len()].chunks_mut(ROW_GRAIN))
        .zip(c[..rows.len()].chunks_mut(ROW_GRAIN))
        .map(|((ca, cb), cc)| (ca, cb, cc))
        .collect();
    pool::parallel_for_each_mut(&mut views, |vi, (ca, cb, cc)| {
        let base = vi * ROW_GRAIN;
        for (j, row) in rows[base..base + ca.len()].iter().enumerate() {
            ca[j] = row.a.evaluate(witness);
            cb[j] = row.b.evaluate(witness);
            cc[j] = row.c.evaluate(witness);
        }
    });
    (a, b, c)
}

/// Computes the coefficients of the quotient `h(x) = (a(x)·b(x) − c(x))/z(x)`
/// from the per-constraint evaluations, via coset NTTs.
///
/// The division is exact exactly when the witness satisfies the R1CS.
pub fn compute_h_coefficients<F: PrimeField>(
    domain: &Radix2Domain<F>,
    mut a: Vec<F>,
    mut b: Vec<F>,
    mut c: Vec<F>,
) -> Vec<F> {
    let _g = trace::region_profile("quotient_poly");
    // To coefficient form.
    domain.ifft_in_place(&mut a);
    domain.ifft_in_place(&mut b);
    domain.ifft_in_place(&mut c);
    // To evaluations over the coset gH, where z never vanishes.
    domain.coset_fft_in_place(&mut a);
    domain.coset_fft_in_place(&mut b);
    domain.coset_fft_in_place(&mut c);
    // z(g·ωⁱ) = gⁿ·ωⁱⁿ − 1 = gⁿ − 1, a single constant on the coset.
    let z_on_coset = domain.eval_vanishing(domain.coset_shift());
    // The coset shift is chosen at domain construction so the vanishing
    // polynomial never hits zero on the coset; the fallback can only
    // trigger on a violated invariant and keeps this path panic-free.
    let z_inv = z_on_coset.inverse().unwrap_or_else(F::one);
    pool::parallel_chunks_mut(&mut a, ROW_GRAIN, |ci, chunk| {
        let base = ci * ROW_GRAIN;
        for (j, slot) in chunk.iter_mut().enumerate() {
            *slot = (*slot * b[base + j] - c[base + j]) * z_inv;
        }
    });
    // Back to coefficients of h.
    domain.coset_ifft_in_place(&mut a);
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkperf_circuit::library::exponentiate;
    use zkperf_ff::bn254::Fr;
    use zkperf_ff::{BigUint, Field};

    #[test]
    fn qap_identity_holds_at_random_point() {
        // For a satisfying witness: (Σ wᵢuᵢ)(Σ wᵢvᵢ) − Σ wᵢwᵢ = h(τ)·z(τ).
        let circuit = exponentiate::<Fr>(10);
        let witness = circuit
            .generate_witness(&[Fr::from_u64(3)], &[])
            .unwrap();
        let sys = circuit.r1cs();
        let domain = Radix2Domain::<Fr>::new(sys.num_constraints()).unwrap();
        let tau = Fr::from_u64(0xdead_beef);
        let (u, v, w) = evaluate_matrices_at(sys, &domain, tau);
        let dot = |m: &[Fr]| -> Fr {
            m.iter()
                .zip(witness.full())
                .map(|(a, b)| *a * *b)
                .sum()
        };
        let lhs = dot(&u) * dot(&v) - dot(&w);

        let (a, b, c) = evaluate_constraints(sys, &domain, witness.full());
        let h = compute_h_coefficients(&domain, a, b, c);
        let mut h_at_tau = Fr::zero();
        let mut pow = Fr::one();
        for coeff in &h {
            h_at_tau += *coeff * pow;
            pow *= tau;
        }
        assert_eq!(lhs, h_at_tau * domain.eval_vanishing(tau));
    }

    #[test]
    fn unsatisfying_witness_breaks_divisibility() {
        let circuit = exponentiate::<Fr>(8);
        let witness = circuit
            .generate_witness(&[Fr::from_u64(2)], &[])
            .unwrap();
        let mut bad = witness.full().to_vec();
        let last = bad.len() - 1;
        bad[last] += Fr::one();
        let sys = circuit.r1cs();
        let domain = Radix2Domain::<Fr>::new(sys.num_constraints()).unwrap();
        let (a, b, c) = evaluate_constraints(sys, &domain, &bad);
        let h = compute_h_coefficients(&domain, a, b, c);
        // h was computed as if division were exact; verify it is NOT a true
        // quotient by re-checking the identity at a random point.
        let tau = Fr::from_u64(77777);
        let (u, v, w) = evaluate_matrices_at(sys, &domain, tau);
        let dot = |m: &[Fr]| -> Fr { m.iter().zip(&bad).map(|(x, y)| *x * *y).sum() };
        let lhs = dot(&u) * dot(&v) - dot(&w);
        let h_at_tau = h
            .iter()
            .enumerate()
            .map(|(i, c)| *c * tau.pow(&BigUint::from_u64(i as u64)))
            .sum::<Fr>();
        assert_ne!(lhs, h_at_tau * domain.eval_vanishing(tau));
    }
}
