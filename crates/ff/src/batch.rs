//! Montgomery batch (simultaneous) inversion.
//!
//! Inverting `n` field elements costs one real inversion plus `3(n-1)`
//! multiplications instead of `n` inversions — the classic trick behind
//! batch affine-coordinate conversions and batched affine point addition,
//! where the per-element field inversion would otherwise dominate.

use crate::traits::Field;

/// Inverts every non-zero element of `values` in place; zeros are left
/// unchanged (the convention batched curve kernels rely on: an identity
/// point simply stays identity).
///
/// # Examples
///
/// ```
/// use zkperf_ff::{batch_inverse, Field, bn254::Fr};
///
/// let mut xs = vec![Fr::from_u64(2), Fr::zero(), Fr::from_u64(7)];
/// batch_inverse(&mut xs);
/// assert!((xs[0] * Fr::from_u64(2)).is_one());
/// assert!(xs[1].is_zero());
/// assert!((xs[2] * Fr::from_u64(7)).is_one());
/// ```
pub fn batch_inverse<F: Field>(values: &mut [F]) {
    let mut scratch = Vec::new();
    batch_inverse_with_scratch(values, &mut scratch);
}

/// [`batch_inverse`] with a caller-owned scratch buffer, so tight loops
/// (per-window batched point additions) can amortize the prefix-product
/// allocation across calls. The scratch is cleared and refilled; its
/// capacity is retained between calls.
///
/// Always inlined: callers run it inside batched-affine loop nests, and as
/// an out-of-line call — what the compiler picks by itself once there is
/// more than one caller — it costs the prover's MSMs ~6%.
#[inline(always)]
pub fn batch_inverse_with_scratch<F: Field>(values: &mut [F], scratch: &mut Vec<F>) {
    scratch.clear();
    scratch.reserve(values.len());
    let mut acc = F::one();
    for v in values.iter() {
        scratch.push(acc);
        if !v.is_zero() {
            acc *= *v;
        }
    }
    // `acc` is a product of non-zero field elements, hence non-zero; the
    // fallback keeps this path panic-free if that invariant ever broke.
    let Some(mut suffix) = acc.inverse() else {
        return;
    };
    for i in (0..values.len()).rev() {
        if values[i].is_zero() {
            continue;
        }
        let inv = scratch[i] * suffix;
        suffix *= values[i];
        values[i] = inv;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bn254::Fr;
    use crate::traits::PrimeField;

    #[test]
    fn matches_individual_inversions() {
        let mut rng = crate::test_rng();
        let original: Vec<Fr> = (0..37).map(|_| Fr::random(&mut rng)).collect();
        let mut batched = original.clone();
        batch_inverse(&mut batched);
        for (o, b) in original.iter().zip(&batched) {
            assert_eq!(o.inverse().unwrap(), *b);
        }
    }

    #[test]
    fn zeros_are_skipped_and_preserved() {
        let mut values = vec![
            Fr::zero(),
            Fr::from_u64(3),
            Fr::zero(),
            Fr::from_u64(5),
            Fr::zero(),
        ];
        batch_inverse(&mut values);
        assert!(values[0].is_zero());
        assert!(values[2].is_zero());
        assert!(values[4].is_zero());
        assert!((values[1] * Fr::from_u64(3)).is_one());
        assert!((values[3] * Fr::from_u64(5)).is_one());
    }

    #[test]
    fn empty_and_all_zero_inputs_are_noops() {
        let mut empty: Vec<Fr> = Vec::new();
        batch_inverse(&mut empty);
        let mut zeros = vec![Fr::zero(); 4];
        batch_inverse(&mut zeros);
        assert!(zeros.iter().all(Fr::is_zero));
    }

    #[test]
    fn scratch_variant_reuses_capacity() {
        let mut rng = crate::test_rng();
        let mut scratch = Vec::new();
        for n in [1usize, 8, 64] {
            let mut values: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
            let expect: Vec<Fr> = values.iter().map(|v| v.inverse().unwrap()).collect();
            batch_inverse_with_scratch(&mut values, &mut scratch);
            assert_eq!(values, expect);
        }
        assert!(scratch.capacity() >= 64);
    }

    #[test]
    fn canonical_limbs_match_biguint_path() {
        let mut rng = crate::test_rng();
        for _ in 0..16 {
            let v = Fr::random(&mut rng);
            let mut fast = [0u64; 4];
            v.write_canonical_limbs(&mut fast);
            assert_eq!(fast.to_vec(), v.to_biguint().to_limbs(4));
        }
    }
}
