use crate::{LinalgError, Result};
use std::fmt;

/// A dense, row-major `f64` matrix.
///
/// This is the working type of MILR's recovery solver. Weight tensors are
/// `f32`; they are widened to `Mat` for factorization and narrowed back
/// after solving.
#[derive(Debug, Clone, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    /// Creates a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates an identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Creates a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::RaggedRows`] if rows have unequal lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self> {
        if rows.is_empty() {
            return Ok(Mat::zeros(0, 0));
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            if r.len() != cols {
                return Err(LinalgError::RaggedRows);
            }
            data.extend_from_slice(r);
        }
        Ok(Mat {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `data.len() != rows*cols`.
    pub fn from_vec(data: Vec<f64>, rows: usize, cols: usize) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::ShapeMismatch {
                op: "from_vec",
                lhs: (rows, cols),
                rhs: (data.len(), 1),
            });
        }
        Ok(Mat { rows, cols, data })
    }

    /// Creates a matrix by evaluating `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Mat { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Flat row-major data.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat row-major data.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Element accessor.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds (this is a hot inner-loop accessor; use
    /// shape checks at the call boundary).
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Element setter.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = v;
    }

    /// Borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics when `i >= rows`.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a vector.
    ///
    /// # Panics
    ///
    /// Panics when `j >= cols`.
    pub fn col(&self, j: usize) -> Vec<f64> {
        (0..self.rows).map(|i| self.get(i, j)).collect()
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Mat {
        let mut out = Mat::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        out
    }

    /// Matrix product.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when inner dimensions differ.
    pub fn matmul(&self, other: &Mat) -> Result<Mat> {
        if self.cols != other.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul",
                lhs: (self.rows, self.cols),
                rhs: (other.rows, other.cols),
            });
        }
        let mut out = Mat::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self.data[i * self.cols + k];
                if aik == 0.0 {
                    continue;
                }
                let brow = &other.data[k * other.cols..(k + 1) * other.cols];
                let orow = &mut out.data[i * other.cols..(i + 1) * other.cols];
                for (o, &b) in orow.iter_mut().zip(brow.iter()) {
                    *o += aik * b;
                }
            }
        }
        Ok(out)
    }

    /// Matrix–vector product.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `v.len() != cols`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if v.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "matvec",
                lhs: (self.rows, self.cols),
                rhs: (v.len(), 1),
            });
        }
        Ok((0..self.rows)
            .map(|i| self.row(i).iter().zip(v.iter()).map(|(&a, &x)| a * x).sum())
            .collect())
    }

    /// Solves `self · x = b` for a single right-hand side via LU with
    /// partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns an error for non-square matrices, length mismatches or
    /// singular systems.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let lu = crate::Lu::factor(self)?;
        lu.solve(b)
    }

    /// Frobenius norm.
    pub fn frob_norm(&self) -> f64 {
        self.data.iter().map(|&x| x * x).sum::<f64>().sqrt()
    }

    /// Maximum absolute element.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0f64, |m, &x| m.max(x.abs()))
    }

    /// True when all elements of `self` and `other` differ by at most
    /// `tol` (and shapes match).
    pub fn approx_eq(&self, other: &Mat, tol: f64) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(&a, &b)| (a - b).abs() <= tol)
    }
}

impl fmt::Display for Mat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Mat {}x{} [", self.rows, self.cols)?;
        const PREVIEW: usize = 4;
        for i in 0..self.rows.min(PREVIEW) {
            write!(f, "  [")?;
            for j in 0..self.cols.min(PREVIEW) {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:10.4}", self.get(i, j))?;
            }
            if self.cols > PREVIEW {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > PREVIEW {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let z = Mat::zeros(2, 3);
        assert_eq!((z.rows(), z.cols()), (2, 3));
        assert!(z.data().iter().all(|&x| x == 0.0));
        let i = Mat::eye(3);
        assert_eq!(i.get(1, 1), 1.0);
        assert_eq!(i.get(0, 1), 0.0);
        assert!(Mat::from_rows(&[&[1.0], &[2.0, 3.0]]).is_err());
        assert!(Mat::from_vec(vec![0.0; 5], 2, 3).is_err());
    }

    #[test]
    fn transpose_involution() {
        let m = Mat::from_fn(3, 2, |i, j| (i * 2 + j) as f64);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().get(1, 2), 5.0);
    }

    #[test]
    fn matmul_matches_hand_result() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Mat::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
        assert!(a.matmul(&Mat::zeros(3, 3)).is_err());
    }

    #[test]
    fn matvec_works() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(a.matvec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0]);
        assert!(a.matvec(&[1.0]).is_err());
    }

    #[test]
    fn norms() {
        let m = Mat::from_rows(&[&[3.0, 4.0]]).unwrap();
        assert!((m.frob_norm() - 5.0).abs() < 1e-14);
        assert_eq!(m.max_abs(), 4.0);
    }

    #[test]
    fn display_preview() {
        let m = Mat::zeros(10, 10);
        let s = m.to_string();
        assert!(s.contains("Mat 10x10"));
        assert!(s.contains('…'));
    }
}
