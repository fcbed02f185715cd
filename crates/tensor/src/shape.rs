use std::fmt;

/// The dimensions of a [`Tensor`](crate::Tensor), row-major.
///
/// A `Shape` is a thin wrapper over a `Vec<usize>` that provides the index
/// arithmetic used across the crate: element counts, row-major strides,
/// and flat-index conversion.
///
/// ```
/// use milr_tensor::Shape;
///
/// let s = Shape::new(&[2, 3, 4]);
/// assert_eq!(s.numel(), 24);
/// assert_eq!(s.strides(), vec![12, 4, 1]);
/// assert_eq!(s.flatten_index(&[1, 2, 3]), Some(23));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape(Vec<usize>);

impl Shape {
    /// Creates a shape from a slice of dimension sizes.
    pub fn new(dims: &[usize]) -> Self {
        Shape(dims.to_vec())
    }

    /// A rank-0 (scalar) shape with one element.
    pub fn scalar() -> Self {
        Shape(Vec::new())
    }

    /// The dimension sizes.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Number of dimensions (rank).
    pub fn ndim(&self) -> usize {
        self.0.len()
    }

    /// Total number of elements. A scalar shape has one element.
    pub fn numel(&self) -> usize {
        self.0.iter().product()
    }

    /// Size of dimension `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.ndim()`.
    pub fn dim(&self, i: usize) -> usize {
        self.0[i]
    }

    /// Row-major strides (in elements, not bytes).
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.0.len()];
        for i in (0..self.0.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.0[i + 1];
        }
        strides
    }

    /// Converts a multi-dimensional index into a flat row-major offset.
    ///
    /// Returns `None` if the index rank differs from the shape rank or any
    /// coordinate is out of bounds.
    pub fn flatten_index(&self, index: &[usize]) -> Option<usize> {
        if index.len() != self.0.len() {
            return None;
        }
        let mut flat = 0usize;
        let mut stride = 1usize;
        for (i, (&idx, &dim)) in index.iter().zip(self.0.iter()).enumerate().rev() {
            let _ = i;
            if idx >= dim {
                return None;
            }
            flat += idx * stride;
            stride *= dim;
        }
        Some(flat)
    }

    /// Converts a flat row-major offset into a multi-dimensional index.
    ///
    /// Returns `None` if the offset is out of range.
    pub fn unflatten_index(&self, mut flat: usize) -> Option<Vec<usize>> {
        if flat >= self.numel() {
            return None;
        }
        let mut index = vec![0usize; self.0.len()];
        for (i, stride) in self.strides().iter().enumerate() {
            index[i] = flat / stride;
            flat %= stride;
        }
        Some(index)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, ")")
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape(dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn scalar_shape_has_one_element() {
        let s = Shape::scalar();
        assert_eq!(s.ndim(), 0);
        assert_eq!(s.numel(), 1);
        assert_eq!(s.flatten_index(&[]), Some(0));
    }

    #[test]
    fn strides_are_row_major() {
        assert_eq!(Shape::new(&[5]).strides(), vec![1]);
        assert_eq!(Shape::new(&[2, 3]).strides(), vec![3, 1]);
        assert_eq!(Shape::new(&[2, 3, 4]).strides(), vec![12, 4, 1]);
    }

    #[test]
    fn flatten_rejects_bad_rank_and_bounds() {
        let s = Shape::new(&[2, 3]);
        assert_eq!(s.flatten_index(&[1]), None);
        assert_eq!(s.flatten_index(&[2, 0]), None);
        assert_eq!(s.flatten_index(&[0, 3]), None);
        assert_eq!(s.flatten_index(&[1, 2]), Some(5));
    }

    #[test]
    fn unflatten_rejects_out_of_range() {
        let s = Shape::new(&[2, 2]);
        assert_eq!(s.unflatten_index(4), None);
        assert_eq!(s.unflatten_index(3), Some(vec![1, 1]));
    }

    #[test]
    fn display_formats_like_tuple() {
        assert_eq!(Shape::new(&[26, 26, 32]).to_string(), "(26, 26, 32)");
        assert_eq!(Shape::new(&[10]).to_string(), "(10)");
    }

    proptest! {
        #[test]
        fn flatten_unflatten_roundtrip(dims in proptest::collection::vec(1usize..6, 1..4)) {
            let shape = Shape::new(&dims);
            for flat in 0..shape.numel() {
                let idx = shape.unflatten_index(flat).unwrap();
                prop_assert_eq!(shape.flatten_index(&idx), Some(flat));
            }
        }

        #[test]
        fn numel_matches_stride_zero(dims in proptest::collection::vec(1usize..6, 1..4)) {
            let shape = Shape::new(&dims);
            let strides = shape.strides();
            prop_assert_eq!(strides[0] * dims[0], shape.numel());
        }
    }
}
