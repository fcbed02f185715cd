//! Scalar reference kernels: the original `matmul` loop and the
//! per-image `im2col` + `matmul` convolution, kept in-tree as the
//! bit-identity reference the register-tiled kernels are proptested
//! against (the `milr_ecc::scalar` pattern).
//!
//! The scalar GEMM loop also serves production: weight tensors with a
//! non-finite entry run through it, because its `a == 0` skip is
//! observable there (`0 × inf` is NaN). See DESIGN.md §16.

use crate::conv::ConvOperands;
use crate::ops::matmul_dims;
use crate::{im2col, ConvSpec, Result, Tensor, TensorError};
use std::cell::Cell;

thread_local! {
    static FORCED: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` with the GEMM behind every [`matmul`](crate::matmul),
/// [`conv2d`](crate::conv2d) and [`conv2d_at`](crate::conv2d_at) on the
/// calling thread switched to the scalar reference loop.
///
/// Parity tests use it to build the same artifacts both ways and
/// compare the bytes; the previous setting is restored on return, also
/// when `f` panics.
///
/// ```
/// use milr_tensor::{matmul, scalar, Tensor};
///
/// let a = Tensor::from_vec(vec![1.0, 2.0], &[1, 2])?;
/// let b = Tensor::from_vec(vec![3.0, 4.0], &[2, 1])?;
/// let fast = matmul(&a, &b)?;
/// let slow = scalar::with_reference_kernels(|| matmul(&a, &b))?;
/// assert_eq!(fast, slow);
/// # Ok::<(), milr_tensor::TensorError>(())
/// ```
pub fn with_reference_kernels<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            FORCED.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(FORCED.with(|c| c.replace(true)));
    f()
}

/// True inside [`with_reference_kernels`] on this thread.
pub(crate) fn reference_forced() -> bool {
    FORCED.with(Cell::get)
}

/// Reference matrix product `(M,N) × (N,P) → (M,P)`: the ikj loop with
/// `f64` accumulator rows that skips zero `a` terms.
///
/// # Errors
///
/// As [`matmul`](crate::matmul).
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, n, p) = matmul_dims(a, b)?;
    let mut out = vec![0.0f32; m * p];
    gemm(a.data(), m, n, b.data(), p, &mut out);
    Tensor::from_vec(out, &[m, p])
}

/// The reference loop over raw row-major slices, writing `out` (`M·P`).
pub(crate) fn gemm(ad: &[f32], m: usize, n: usize, bd: &[f32], p: usize, out: &mut [f32]) {
    // Cache-friendly ikj loop with f64 accumulator rows.
    let mut acc = vec![0.0f64; p];
    for i in 0..m {
        for x in acc.iter_mut() {
            *x = 0.0;
        }
        for k in 0..n {
            let aik = ad[i * n + k] as f64;
            if aik == 0.0 {
                continue;
            }
            let brow = &bd[k * p..(k + 1) * p];
            for (j, &bkj) in brow.iter().enumerate() {
                acc[j] += aik * bkj as f64;
            }
        }
        for j in 0..p {
            out[i * p + j] = acc[j] as f32;
        }
    }
}

/// Reference batched convolution: per image, a fresh `im2col` matrix
/// times the reshaped filter bank through [`matmul`].
///
/// # Errors
///
/// As [`conv2d`](crate::conv2d).
pub fn conv2d(input: &Tensor, filters: &Tensor, spec: &ConvSpec) -> Result<Tensor> {
    let ops = ConvOperands::check(input, filters, spec)?;
    let filter_mat = filters.reshape(&[ops.walker.patch_len(), ops.y])?;
    let mut out = Vec::with_capacity(ops.out_dims().iter().product());
    for img in 0..ops.batch {
        let image = slice_batch(input, img)?;
        let cols = im2col(&image, spec)?;
        let prod = matmul(&cols, &filter_mat)?;
        out.extend_from_slice(prod.data());
    }
    Tensor::from_vec(out, &ops.out_dims())
}

/// Extracts image `index` from a batched `(B, …)` tensor as a rank-(n−1)
/// tensor.
fn slice_batch(batch: &Tensor, index: usize) -> Result<Tensor> {
    if batch.ndim() == 0 {
        return Err(TensorError::RankMismatch {
            op: "slice_batch",
            expected: 1,
            actual: 0,
        });
    }
    let b = batch.shape().dim(0);
    if index >= b {
        return Err(TensorError::IndexOutOfBounds {
            index: vec![index],
            shape: batch.shape().dims().to_vec(),
        });
    }
    let rest: Vec<usize> = batch.shape().dims()[1..].to_vec();
    let stride: usize = rest.iter().product();
    let data = batch.data()[index * stride..(index + 1) * stride].to_vec();
    Tensor::from_vec(data, &rest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_batch_extracts_images() {
        let batch = Tensor::from_vec((0..8).map(|x| x as f32).collect(), &[2, 2, 2, 1]).unwrap();
        let img1 = slice_batch(&batch, 1).unwrap();
        assert_eq!(img1.shape().dims(), &[2, 2, 1]);
        assert_eq!(img1.data(), &[4.0, 5.0, 6.0, 7.0]);
        assert!(slice_batch(&batch, 2).is_err());
    }

    #[test]
    fn forced_reference_is_scoped_and_restored() {
        assert!(!reference_forced());
        with_reference_kernels(|| {
            assert!(reference_forced());
            with_reference_kernels(|| assert!(reference_forced()));
            assert!(reference_forced());
        });
        assert!(!reference_forced());
        let caught = std::panic::catch_unwind(|| with_reference_kernels(|| panic!("boom")));
        assert!(caught.is_err());
        assert!(!reference_forced());
    }
}
