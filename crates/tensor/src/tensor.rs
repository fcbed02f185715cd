use crate::{Result, Shape, TensorError};
use std::fmt;

/// A dense, row-major, owned `f32` tensor.
///
/// `Tensor` is the unit of data flowing through the CNN substrate and the
/// object MILR checkpoints, regenerates and solves for. It is deliberately
/// simple: contiguous storage plus a [`Shape`]. All layer mathematics in
/// the reproduction (matmul, im2col convolution, pooling) is built on it.
///
/// ```
/// use milr_tensor::Tensor;
///
/// let t = Tensor::from_fn(&[2, 3], |idx| (idx[0] * 3 + idx[1]) as f32);
/// assert_eq!(t.at(&[1, 2])?, 5.0);
/// assert_eq!(t.shape().dims(), &[2, 3]);
/// # Ok::<(), milr_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let data = vec![0.0; shape.numel()];
        Tensor { shape, data }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(dims: &[usize]) -> Self {
        Tensor::full(dims, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        let data = vec![value; shape.numel()];
        Tensor { shape, data }
    }

    /// Creates a 2-D identity matrix of size `n × n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Creates a tensor from existing data.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeDataMismatch`] if `data.len()` differs
    /// from the element count implied by `dims`.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self> {
        let shape = Shape::new(dims);
        if data.len() != shape.numel() {
            return Err(TensorError::ShapeDataMismatch {
                expected: shape.numel(),
                actual: data.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// Creates a tensor by evaluating `f` at every index, in row-major
    /// order.
    pub fn from_fn(dims: &[usize], mut f: impl FnMut(&[usize]) -> f32) -> Self {
        let shape = Shape::new(dims);
        let n = shape.numel();
        let mut data = Vec::with_capacity(n);
        for flat in 0..n {
            let idx = shape
                .unflatten_index(flat)
                .expect("flat index in range by construction");
            data.push(f(&idx));
        }
        Tensor { shape, data }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Rank (number of dimensions).
    pub fn ndim(&self) -> usize {
        self.shape.ndim()
    }

    /// Immutable view of the underlying row-major storage.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major storage.
    ///
    /// Fault injectors use this to flip bits in place, exactly as a soft
    /// memory error would corrupt the weight buffer of a deployed network.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its storage.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] for a bad index.
    pub fn at(&self, index: &[usize]) -> Result<f32> {
        self.shape
            .flatten_index(index)
            .map(|flat| self.data[flat])
            .ok_or_else(|| TensorError::IndexOutOfBounds {
                index: index.to_vec(),
                shape: self.shape.dims().to_vec(),
            })
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] for a bad index.
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<()> {
        match self.shape.flatten_index(index) {
            Some(flat) => {
                self.data[flat] = value;
                Ok(())
            }
            None => Err(TensorError::IndexOutOfBounds {
                index: index.to_vec(),
                shape: self.shape.dims().to_vec(),
            }),
        }
    }

    /// Returns a copy with a new shape holding the same elements.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeDataMismatch`] if the element counts
    /// differ.
    pub fn reshape(&self, dims: &[usize]) -> Result<Self> {
        let shape = Shape::new(dims);
        if shape.numel() != self.data.len() {
            return Err(TensorError::ShapeDataMismatch {
                expected: shape.numel(),
                actual: self.data.len(),
            });
        }
        Ok(Tensor {
            shape,
            data: self.data.clone(),
        })
    }

    /// Reshapes in place without copying the data.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeDataMismatch`] if the element counts
    /// differ.
    pub fn reshape_in_place(&mut self, dims: &[usize]) -> Result<()> {
        let shape = Shape::new(dims);
        if shape.numel() != self.data.len() {
            return Err(TensorError::ShapeDataMismatch {
                expected: shape.numel(),
                actual: self.data.len(),
            });
        }
        self.shape = shape;
        Ok(())
    }

    /// Applies `f` to every element, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_in_place(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Combines two same-shaped tensors elementwise.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Self> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                op: "zip_map",
                lhs: self.shape.dims().to_vec(),
                rhs: other.shape.dims().to_vec(),
            });
        }
        Ok(Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }

    /// Elementwise sum.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Self> {
        self.zip_map(other, |a, b| a + b)
    }

    /// Elementwise difference (`self - other`).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Self> {
        self.zip_map(other, |a, b| a - b)
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f32) -> Self {
        self.map(|x| x * s)
    }

    /// Sum of all elements, accumulated in `f64` for stability.
    pub fn sum(&self) -> f64 {
        self.data.iter().map(|&x| x as f64).sum()
    }

    /// Maximum absolute element (0.0 for empty tensors).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// Matrix product with another rank-2 tensor; see
    /// [`matmul`](crate::matmul).
    ///
    /// # Errors
    ///
    /// Returns an error when either operand is not rank 2 or the inner
    /// dimensions differ.
    pub fn matmul(&self, other: &Tensor) -> Result<Self> {
        crate::matmul(self, other)
    }

    /// 2-D transpose.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless the tensor is rank 2.
    pub fn transpose(&self) -> Result<Self> {
        if self.ndim() != 2 {
            return Err(TensorError::RankMismatch {
                op: "transpose",
                expected: 2,
                actual: self.ndim(),
            });
        }
        let (r, c) = (self.shape.dim(0), self.shape.dim(1));
        let mut out = Tensor::zeros(&[c, r]);
        for i in 0..r {
            for j in 0..c {
                out.data[j * r + i] = self.data[i * c + j];
            }
        }
        Ok(out)
    }

    /// Extracts row `i` of a rank-2 tensor as a flat vector.
    ///
    /// # Errors
    ///
    /// Returns an error for non-matrices or out-of-bounds rows.
    pub fn row(&self, i: usize) -> Result<Vec<f32>> {
        if self.ndim() != 2 {
            return Err(TensorError::RankMismatch {
                op: "row",
                expected: 2,
                actual: self.ndim(),
            });
        }
        let (r, c) = (self.shape.dim(0), self.shape.dim(1));
        if i >= r {
            return Err(TensorError::IndexOutOfBounds {
                index: vec![i],
                shape: self.shape.dims().to_vec(),
            });
        }
        Ok(self.data[i * c..(i + 1) * c].to_vec())
    }

    /// Extracts column `j` of a rank-2 tensor as a flat vector.
    ///
    /// # Errors
    ///
    /// Returns an error for non-matrices or out-of-bounds columns.
    pub fn col(&self, j: usize) -> Result<Vec<f32>> {
        if self.ndim() != 2 {
            return Err(TensorError::RankMismatch {
                op: "col",
                expected: 2,
                actual: self.ndim(),
            });
        }
        let (r, c) = (self.shape.dim(0), self.shape.dim(1));
        if j >= c {
            return Err(TensorError::IndexOutOfBounds {
                index: vec![j],
                shape: self.shape.dims().to_vec(),
            });
        }
        Ok((0..r).map(|i| self.data[i * c + j]).collect())
    }

    /// Concatenates rank-2 tensors along rows (stacking vertically).
    ///
    /// # Errors
    ///
    /// Returns an error if any operand is not rank 2 or column counts
    /// differ.
    pub fn vstack(tensors: &[&Tensor]) -> Result<Self> {
        if tensors.is_empty() {
            return Ok(Tensor::zeros(&[0, 0]));
        }
        let cols = tensors[0].shape.dim(1);
        let mut rows = 0usize;
        for t in tensors {
            if t.ndim() != 2 {
                return Err(TensorError::RankMismatch {
                    op: "vstack",
                    expected: 2,
                    actual: t.ndim(),
                });
            }
            if t.shape.dim(1) != cols {
                return Err(TensorError::ShapeMismatch {
                    op: "vstack",
                    lhs: tensors[0].shape.dims().to_vec(),
                    rhs: t.shape.dims().to_vec(),
                });
            }
            rows += t.shape.dim(0);
        }
        let mut data = Vec::with_capacity(rows * cols);
        for t in tensors {
            data.extend_from_slice(&t.data);
        }
        Ok(Tensor {
            shape: Shape::new(&[rows, cols]),
            data,
        })
    }

    /// Concatenates rank-2 tensors along columns (stacking horizontally).
    ///
    /// # Errors
    ///
    /// Returns an error if any operand is not rank 2 or row counts differ.
    pub fn hstack(tensors: &[&Tensor]) -> Result<Self> {
        if tensors.is_empty() {
            return Ok(Tensor::zeros(&[0, 0]));
        }
        let rows = tensors[0].shape.dim(0);
        let mut cols = 0usize;
        for t in tensors {
            if t.ndim() != 2 {
                return Err(TensorError::RankMismatch {
                    op: "hstack",
                    expected: 2,
                    actual: t.ndim(),
                });
            }
            if t.shape.dim(0) != rows {
                return Err(TensorError::ShapeMismatch {
                    op: "hstack",
                    lhs: tensors[0].shape.dims().to_vec(),
                    rhs: t.shape.dims().to_vec(),
                });
            }
            cols += t.shape.dim(1);
        }
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for t in tensors {
                let c = t.shape.dim(1);
                data.extend_from_slice(&t.data[i * c..(i + 1) * c]);
            }
        }
        Ok(Tensor {
            shape: Shape::new(&[rows, cols]),
            data,
        })
    }

    /// Copies the elements into an `f64` vector (for `milr-linalg`
    /// solves).
    pub fn to_f64_vec(&self) -> Vec<f64> {
        self.data.iter().map(|&x| x as f64).collect()
    }

    /// Builds a tensor from `f64` data, rounding each element to `f32`.
    ///
    /// MILR recovers parameters by solving linear systems in `f64` and
    /// writing the rounded results back over the corrupted `f32` weights.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeDataMismatch`] on length mismatch.
    pub fn from_f64_vec(data: &[f64], dims: &[usize]) -> Result<Self> {
        Tensor::from_vec(data.iter().map(|&x| x as f32).collect(), dims)
    }

    /// True when every element of `self` and `other` is close under
    /// `|a - b| <= atol + rtol * |b|`.
    ///
    /// MILR's detection phase compares recomputed layer outputs against
    /// partial checkpoints with exactly this criterion; the tolerance
    /// absorbs float-associativity noise (paper §V-A, *Limitations*).
    pub fn approx_eq(&self, other: &Tensor, rtol: f32, atol: f32) -> bool {
        self.shape == other.shape
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(&a, &b)| (a - b).abs() <= atol + rtol * b.abs())
    }

    /// Largest elementwise absolute difference; `None` when shapes differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> Option<f32> {
        if self.shape != other.shape {
            return None;
        }
        Some(
            self.data
                .iter()
                .zip(other.data.iter())
                .fold(0.0f32, |m, (&a, &b)| m.max((a - b).abs())),
        )
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} [", self.shape)?;
        const PREVIEW: usize = 8;
        for (i, x) in self.data.iter().take(PREVIEW).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{x}")?;
        }
        if self.data.len() > PREVIEW {
            write!(f, ", …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn constructors_produce_expected_values() {
        assert!(Tensor::zeros(&[2, 2]).data().iter().all(|&x| x == 0.0));
        assert!(Tensor::ones(&[3]).data().iter().all(|&x| x == 1.0));
        assert!(Tensor::full(&[2], 7.5).data().iter().all(|&x| x == 7.5));
        let eye = Tensor::eye(3);
        assert_eq!(eye.at(&[0, 0]).unwrap(), 1.0);
        assert_eq!(eye.at(&[0, 1]).unwrap(), 0.0);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![1.0; 6], &[2, 3]).is_ok());
        let err = Tensor::from_vec(vec![1.0; 5], &[2, 3]).unwrap_err();
        assert_eq!(
            err,
            TensorError::ShapeDataMismatch {
                expected: 6,
                actual: 5
            }
        );
    }

    #[test]
    fn indexing_roundtrips() {
        let mut t = Tensor::zeros(&[2, 3, 4]);
        t.set(&[1, 2, 3], 42.0).unwrap();
        assert_eq!(t.at(&[1, 2, 3]).unwrap(), 42.0);
        assert!(t.at(&[2, 0, 0]).is_err());
        assert!(t.set(&[0, 3, 0], 1.0).is_err());
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[3, 4]).unwrap();
        let r = t.reshape(&[2, 6]).unwrap();
        assert_eq!(r.data(), t.data());
        assert!(t.reshape(&[5, 5]).is_err());
    }

    #[test]
    fn transpose_is_involution() {
        let t = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]).unwrap();
        let tt = t.transpose().unwrap().transpose().unwrap();
        assert_eq!(t, tt);
        assert_eq!(t.transpose().unwrap().at(&[2, 1]).unwrap(), 5.0);
    }

    #[test]
    fn row_col_extraction() {
        let t = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]).unwrap();
        assert_eq!(t.row(1).unwrap(), vec![3.0, 4.0, 5.0]);
        assert_eq!(t.col(2).unwrap(), vec![2.0, 5.0]);
        assert!(t.row(2).is_err());
        assert!(t.col(3).is_err());
    }

    #[test]
    fn stacking_works() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 4.0], &[1, 2]).unwrap();
        let v = Tensor::vstack(&[&a, &b]).unwrap();
        assert_eq!(v.shape().dims(), &[2, 2]);
        assert_eq!(v.data(), &[1.0, 2.0, 3.0, 4.0]);
        let h = Tensor::hstack(&[&a, &b]).unwrap();
        assert_eq!(h.shape().dims(), &[1, 4]);
        assert_eq!(h.data(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn stacking_validates_shapes() {
        let a = Tensor::zeros(&[1, 2]);
        let b = Tensor::zeros(&[1, 3]);
        assert!(Tensor::vstack(&[&a, &b]).is_err());
        let c = Tensor::zeros(&[2, 2]);
        assert!(Tensor::hstack(&[&a, &c]).is_err());
    }

    #[test]
    fn approx_eq_respects_tolerances() {
        let a = Tensor::from_vec(vec![1.0, 100.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![1.0001, 100.01], &[2]).unwrap();
        assert!(a.approx_eq(&b, 1e-3, 1e-3));
        assert!(!a.approx_eq(&b, 1e-6, 1e-6));
        let c = Tensor::zeros(&[3]);
        assert!(!a.approx_eq(&c, 1.0, 1.0));
    }

    #[test]
    fn f64_roundtrip() {
        let t = Tensor::from_vec(vec![1.5, -2.25, 3.125], &[3]).unwrap();
        let v = t.to_f64_vec();
        let back = Tensor::from_f64_vec(&v, &[3]).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn sum_accumulates_in_f64() {
        let t = Tensor::full(&[1000], 0.1);
        assert!((t.sum() - 100.0).abs() < 1e-3);
    }

    #[test]
    fn display_previews_elements() {
        let t = Tensor::from_vec((0..20).map(|x| x as f32).collect(), &[20]).unwrap();
        let s = t.to_string();
        assert!(s.contains('…'));
        assert!(s.contains("(20)"));
    }

    proptest! {
        #[test]
        fn add_sub_roundtrip(v in proptest::collection::vec(-100.0f32..100.0, 1..64)) {
            let n = v.len();
            let a = Tensor::from_vec(v.clone(), &[n]).unwrap();
            let b = Tensor::from_vec(v.iter().map(|x| x * 0.5).collect(), &[n]).unwrap();
            let back = a.add(&b).unwrap().sub(&b).unwrap();
            prop_assert!(back.approx_eq(&a, 1e-5, 1e-5));
        }

        #[test]
        fn scale_distributes(v in proptest::collection::vec(-10.0f32..10.0, 1..32), s in -4.0f32..4.0) {
            let n = v.len();
            let a = Tensor::from_vec(v, &[n]).unwrap();
            let lhs = a.scale(s).add(&a.scale(s)).unwrap();
            let rhs = a.scale(2.0 * s);
            prop_assert!(lhs.approx_eq(&rhs, 1e-4, 1e-4));
        }
    }
}
