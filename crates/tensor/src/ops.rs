use crate::gemm;
use crate::{Result, Tensor, TensorError};

/// Matrix product of two rank-2 tensors: `(M,N) × (N,P) → (M,P)`.
///
/// This is the dense-layer forward pass of the paper (§IV-A): `A` is the
/// input, `B` the parameters, the result the output. Accumulation is done
/// in `f64` so that the forward pass MILR replays during detection and the
/// init-time pass that produced the checkpoints agree bit-for-bit and are
/// as close as possible to the algebraic value the recovery solver
/// reconstructs. The register-tiled kernel keeps every output's
/// `k = 0..N` summation order, so the result is bit-identical to
/// [`scalar::matmul`](crate::scalar::matmul) (DESIGN.md §16).
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-matrices and
/// [`TensorError::ShapeMismatch`] when inner dimensions differ.
///
/// ```
/// use milr_tensor::{matmul, Tensor};
///
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
/// let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2])?;
/// let c = matmul(&a, &b)?;
/// assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
/// # Ok::<(), milr_tensor::TensorError>(())
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, n, p) = matmul_dims(a, b)?;
    let mut out = vec![0.0f32; m * p];
    gemm::matmul(a.data(), m, n, b.data(), p, &mut out);
    Tensor::from_vec(out, &[m, p])
}

/// Validates `matmul` operands, returning `(M, N, P)`.
pub(crate) fn matmul_dims(a: &Tensor, b: &Tensor) -> Result<(usize, usize, usize)> {
    if a.ndim() != 2 {
        return Err(TensorError::RankMismatch {
            op: "matmul",
            expected: 2,
            actual: a.ndim(),
        });
    }
    if b.ndim() != 2 {
        return Err(TensorError::RankMismatch {
            op: "matmul",
            expected: 2,
            actual: b.ndim(),
        });
    }
    let (m, n) = (a.shape().dim(0), a.shape().dim(1));
    let (n2, p) = (b.shape().dim(0), b.shape().dim(1));
    if n != n2 {
        return Err(TensorError::ShapeMismatch {
            op: "matmul",
            lhs: a.shape().dims().to_vec(),
            rhs: b.shape().dims().to_vec(),
        });
    }
    Ok((m, n, p))
}

/// Index of the largest element in a flat slice; ties resolve to the
/// first occurrence. Used to turn network logits into class predictions.
///
/// Returns `None` for an empty slice.
///
/// ```
/// use milr_tensor::argmax;
///
/// assert_eq!(argmax(&[0.1, 0.7, 0.2]), Some(1));
/// assert_eq!(argmax(&[]), None);
/// ```
pub fn argmax(values: &[f32]) -> Option<usize> {
    if values.is_empty() {
        return None;
    }
    let mut best = 0usize;
    for (i, &v) in values.iter().enumerate().skip(1) {
        if v > values[best] {
            best = i;
        }
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn matmul_identity_is_noop() {
        let a = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]).unwrap();
        let i3 = Tensor::eye(3);
        assert_eq!(matmul(&a, &i3).unwrap(), a);
        let i2 = Tensor::eye(2);
        assert_eq!(matmul(&i2, &a).unwrap(), a);
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        assert!(matches!(
            matmul(&a, &b),
            Err(TensorError::ShapeMismatch { .. })
        ));
        let v = Tensor::zeros(&[3]);
        assert!(matches!(
            matmul(&v, &a),
            Err(TensorError::RankMismatch { .. })
        ));
        assert!(matches!(
            matmul(&a, &v),
            Err(TensorError::RankMismatch { .. })
        ));
    }

    #[test]
    fn matmul_known_product() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]).unwrap();
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn argmax_basic() {
        assert_eq!(argmax(&[3.0, 1.0, 2.0]), Some(0));
        assert_eq!(argmax(&[1.0, 3.0, 3.0]), Some(1));
        assert_eq!(argmax(&[f32::NEG_INFINITY, -1.0]), Some(1));
    }

    proptest! {
        #[test]
        fn matmul_associative_with_identity(
            rows in 1usize..5, cols in 1usize..5,
            seed in proptest::collection::vec(-10.0f32..10.0, 25)
        ) {
            let data: Vec<f32> = seed.iter().cycle().take(rows * cols).cloned().collect();
            let a = Tensor::from_vec(data, &[rows, cols]).unwrap();
            let prod = matmul(&a, &Tensor::eye(cols)).unwrap();
            prop_assert_eq!(prod, a);
        }

        #[test]
        fn matmul_distributes_over_addition(
            vals in proptest::collection::vec(-5.0f32..5.0, 18)
        ) {
            let a = Tensor::from_vec(vals[0..6].to_vec(), &[2, 3]).unwrap();
            let b = Tensor::from_vec(vals[6..12].to_vec(), &[3, 2]).unwrap();
            let c = Tensor::from_vec(vals[12..18].to_vec(), &[3, 2]).unwrap();
            let lhs = matmul(&a, &b.add(&c).unwrap()).unwrap();
            let rhs = matmul(&a, &b).unwrap().add(&matmul(&a, &c).unwrap()).unwrap();
            prop_assert!(lhs.approx_eq(&rhs, 1e-4, 1e-4));
        }
    }
}
