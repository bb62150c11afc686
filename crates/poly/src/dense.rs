//! Dense univariate polynomials over a prime field.

use std::fmt;

use zkperf_ff::{Field, PrimeField};

use crate::domain::Radix2Domain;

/// A dense polynomial `c₀ + c₁x + …`, with no trailing zero coefficients.
///
/// # Examples
///
/// ```
/// use zkperf_poly::DensePolynomial;
/// use zkperf_ff::{Field, bn254::Fr};
///
/// // (x + 1)(x + 2) = x² + 3x + 2
/// let a = DensePolynomial::new(vec![Fr::from_u64(1), Fr::from_u64(1)]);
/// let b = DensePolynomial::new(vec![Fr::from_u64(2), Fr::from_u64(1)]);
/// let c = a.mul(&b);
/// assert_eq!(c.evaluate(Fr::from_u64(10)), Fr::from_u64(132));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DensePolynomial<F: PrimeField> {
    coeffs: Vec<F>,
}

impl<F: PrimeField> DensePolynomial<F> {
    /// Constructs from coefficients (low degree first), trimming zeros.
    pub fn new(mut coeffs: Vec<F>) -> Self {
        while coeffs.last().is_some_and(Field::is_zero) {
            coeffs.pop();
        }
        DensePolynomial { coeffs }
    }

    /// The zero polynomial.
    pub fn zero() -> Self {
        DensePolynomial { coeffs: Vec::new() }
    }

    /// `true` iff this is the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// The coefficients, low degree first (empty for zero).
    pub fn coeffs(&self) -> &[F] {
        &self.coeffs
    }

    /// Degree; zero polynomial reports 0.
    pub fn degree(&self) -> usize {
        self.coeffs.len().saturating_sub(1)
    }

    /// Horner evaluation at `x`.
    pub fn evaluate(&self, x: F) -> F {
        let mut acc = F::zero();
        for &c in self.coeffs.iter().rev() {
            acc = acc * x + c;
        }
        acc
    }

    /// Interpolates the polynomial taking the given values over `domain`.
    ///
    /// # Panics
    ///
    /// Panics if `evals.len()` differs from the domain size.
    pub fn interpolate(domain: &Radix2Domain<F>, evals: &[F]) -> Self {
        let mut buf = evals.to_vec();
        domain.ifft_in_place(&mut buf);
        Self::new(buf)
    }

    /// Product via NTT (falls back to schoolbook for tiny inputs).
    pub fn mul(&self, other: &Self) -> Self {
        if self.is_zero() || other.is_zero() {
            return Self::zero();
        }
        let result_len = self.coeffs.len() + other.coeffs.len() - 1;
        if result_len <= 16 {
            let mut out = vec![F::zero(); result_len];
            for (i, &a) in self.coeffs.iter().enumerate() {
                for (j, &b) in other.coeffs.iter().enumerate() {
                    out[i + j] += a * b;
                }
            }
            return Self::new(out);
        }
        let domain =
            Radix2Domain::<F>::new(result_len).expect("product degree within 2-adic range");
        let mut a = self.coeffs.clone();
        a.resize(domain.size(), F::zero());
        let mut b = other.coeffs.clone();
        b.resize(domain.size(), F::zero());
        domain.fft_in_place(&mut a);
        domain.fft_in_place(&mut b);
        for (x, y) in a.iter_mut().zip(&b) {
            *x *= *y;
        }
        domain.ifft_in_place(&mut a);
        Self::new(a)
    }

    /// Long division by `divisor`, returning `(quotient, remainder)`.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub fn divide(&self, divisor: &Self) -> (Self, Self) {
        assert!(!divisor.is_zero(), "polynomial division by zero");
        if self.degree() < divisor.degree() || self.is_zero() {
            return (Self::zero(), self.clone());
        }
        let mut rem = self.coeffs.clone();
        let dlead_inv = divisor
            .coeffs
            .last()
            .expect("non-zero divisor")
            .inverse()
            .expect("leading coefficient non-zero");
        let dd = divisor.coeffs.len();
        let mut quo = vec![F::zero(); rem.len() - dd + 1];
        for i in (0..quo.len()).rev() {
            let c = rem[i + dd - 1] * dlead_inv;
            quo[i] = c;
            if c.is_zero() {
                continue;
            }
            for (j, &d) in divisor.coeffs.iter().enumerate() {
                let t = rem[i + j];
                rem[i + j] = t - c * d;
            }
        }
        (Self::new(quo), Self::new(rem))
    }

    /// Synthetic division by the linear factor `x − z`: returns the
    /// quotient and the remainder `self(z)`, in one O(n) pass and one
    /// allocation ([`divide`](Self::divide) by `x − z` gives the same pair).
    pub fn divide_by_linear(&self, z: F) -> (Self, F) {
        let mut quo = vec![F::zero(); self.degree()];
        let mut carry = F::zero();
        for (i, &c) in self.coeffs.iter().enumerate().rev() {
            carry = carry * z + c;
            if i > 0 {
                quo[i - 1] = carry;
            }
        }
        (Self::new(quo), carry)
    }
}

impl<F: PrimeField> std::ops::Add<&DensePolynomial<F>> for &DensePolynomial<F> {
    type Output = DensePolynomial<F>;
    fn add(self, rhs: &DensePolynomial<F>) -> DensePolynomial<F> {
        let n = self.coeffs.len().max(rhs.coeffs.len());
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let a = self.coeffs.get(i).copied().unwrap_or_else(F::zero);
            let b = rhs.coeffs.get(i).copied().unwrap_or_else(F::zero);
            out.push(a + b);
        }
        DensePolynomial::new(out)
    }
}

impl<F: PrimeField> std::ops::Sub<&DensePolynomial<F>> for &DensePolynomial<F> {
    type Output = DensePolynomial<F>;
    fn sub(self, rhs: &DensePolynomial<F>) -> DensePolynomial<F> {
        let n = self.coeffs.len().max(rhs.coeffs.len());
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let a = self.coeffs.get(i).copied().unwrap_or_else(F::zero);
            let b = rhs.coeffs.get(i).copied().unwrap_or_else(F::zero);
            out.push(a - b);
        }
        DensePolynomial::new(out)
    }
}

impl<F: PrimeField> fmt::Display for DensePolynomial<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return f.write_str("0");
        }
        let terms: Vec<String> = self
            .coeffs
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.is_zero())
            .map(|(i, c)| match i {
                0 => format!("{c}"),
                1 => format!("{c}*x"),
                _ => format!("{c}*x^{i}"),
            })
            .collect();
        f.write_str(&terms.join(" + "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkperf_ff::bn254::Fr;

    fn poly(cs: &[u64]) -> DensePolynomial<Fr> {
        DensePolynomial::new(cs.iter().map(|&c| Fr::from_u64(c)).collect())
    }

    #[test]
    fn trims_trailing_zeros() {
        let p = DensePolynomial::new(vec![Fr::from_u64(1), Fr::zero(), Fr::zero()]);
        assert_eq!(p.degree(), 0);
        assert_eq!(p.coeffs().len(), 1);
        assert!(DensePolynomial::new(vec![Fr::zero()]).is_zero());
    }

    #[test]
    fn evaluate_horner() {
        let p = poly(&[2, 3, 1]); // x² + 3x + 2
        assert_eq!(p.evaluate(Fr::from_u64(0)), Fr::from_u64(2));
        assert_eq!(p.evaluate(Fr::from_u64(4)), Fr::from_u64(30));
        assert_eq!(DensePolynomial::<Fr>::zero().evaluate(Fr::from_u64(9)), Fr::zero());
    }

    #[test]
    fn mul_small_and_fft_agree() {
        let mut rng = zkperf_ff::test_rng();
        let a = DensePolynomial::new((0..9).map(|_| Fr::random(&mut rng)).collect());
        let b = DensePolynomial::new((0..13).map(|_| Fr::random(&mut rng)).collect());
        // degree 20 product forces the FFT path; verify against schoolbook.
        let fast = a.mul(&b);
        let mut slow = vec![Fr::zero(); 21];
        for (i, &x) in a.coeffs().iter().enumerate() {
            for (j, &y) in b.coeffs().iter().enumerate() {
                slow[i + j] += x * y;
            }
        }
        assert_eq!(fast, DensePolynomial::new(slow));
    }

    #[test]
    fn mul_by_zero_is_zero() {
        let a = poly(&[1, 2, 3]);
        assert!(a.mul(&DensePolynomial::zero()).is_zero());
    }

    #[test]
    fn division_reconstructs() {
        let mut rng = zkperf_ff::test_rng();
        let a = DensePolynomial::new((0..17).map(|_| Fr::random(&mut rng)).collect());
        let d = DensePolynomial::new((0..5).map(|_| Fr::random(&mut rng)).collect());
        let (q, r) = a.divide(&d);
        assert!(r.degree() < d.degree() || r.is_zero());
        assert_eq!(&q.mul(&d) + &r, a);
    }

    #[test]
    fn division_by_larger_degree() {
        let a = poly(&[1, 2]);
        let d = poly(&[1, 2, 3]);
        let (q, r) = a.divide(&d);
        assert!(q.is_zero());
        assert_eq!(r, a);
    }

    #[test]
    fn divide_by_linear_matches_long_division() {
        let mut rng = zkperf_ff::test_rng();
        let z = Fr::random(&mut rng);
        let divisor = DensePolynomial::new(vec![-z, Fr::one()]);
        // Degrees 0 (quotient zero, remainder the constant) through 17,
        // and the zero polynomial.
        let mut cases = vec![DensePolynomial::zero()];
        for len in 1..=18 {
            cases.push(DensePolynomial::new(
                (0..len).map(|_| Fr::random(&mut rng)).collect(),
            ));
        }
        for p in &cases {
            let (q, r) = p.divide(&divisor);
            let (q_lin, r_lin) = p.divide_by_linear(z);
            assert_eq!(q_lin, q, "quotient at {} coefficients", p.coeffs().len());
            assert_eq!(DensePolynomial::new(vec![r_lin]), r);
            assert_eq!(r_lin, p.evaluate(z));
        }
        // An exact division leaves nothing.
        let exact = poly(&[3, 1, 4, 1, 5]).mul(&divisor);
        assert!(exact.divide_by_linear(z).1.is_zero());
    }

    #[test]
    fn interpolate_matches_evaluations() {
        let mut rng = zkperf_ff::test_rng();
        let domain = Radix2Domain::<Fr>::new(8).unwrap();
        let evals: Vec<Fr> = (0..8).map(|_| Fr::random(&mut rng)).collect();
        let p = DensePolynomial::interpolate(&domain, &evals);
        for (i, &e) in evals.iter().enumerate() {
            assert_eq!(p.evaluate(domain.element(i)), e);
        }
    }

    #[test]
    fn display_formats_terms() {
        assert_eq!(poly(&[2, 0, 1]).to_string(), "2 + 1*x^2");
        assert_eq!(DensePolynomial::<Fr>::zero().to_string(), "0");
    }
}
