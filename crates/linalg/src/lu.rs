use crate::{LinalgError, Mat, Result};

/// LU factorization with partial (row) pivoting: `P·A = L·U`.
///
/// LU backs only [`crate::ridge_solve`]'s normal equations (through
/// [`Mat::solve`]), MILR's last-resort recovery solver. Dense and
/// convolution parameter solving factor with [`crate::Qr`] instead.
///
/// ```
/// use milr_linalg::{Lu, Mat};
///
/// let a = Mat::from_rows(&[&[0.0, 2.0], &[1.0, 1.0]])?;
/// let lu = Lu::factor(&a)?;
/// let x = lu.solve(&[2.0, 2.0])?;
/// assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
/// # Ok::<(), milr_linalg::LinalgError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Lu {
    /// Combined L (strict lower, unit diagonal implied) and U (upper).
    lu: Mat,
    /// Row permutation: `perm[i]` is the original row now at position `i`.
    perm: Vec<usize>,
}

impl Lu {
    /// Factors a square matrix.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] for non-square input and
    /// [`LinalgError::Singular`] when no usable pivot exists in some
    /// column.
    pub fn factor(a: &Mat) -> Result<Self> {
        if a.rows() != a.cols() {
            return Err(LinalgError::ShapeMismatch {
                op: "lu",
                lhs: (a.rows(), a.cols()),
                rhs: (a.rows(), a.rows()),
            });
        }
        let n = a.rows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        for k in 0..n {
            // Partial pivot: largest |a[i][k]| for i >= k.
            let mut best = k;
            let mut best_abs = lu.get(k, k).abs();
            for i in (k + 1)..n {
                let v = lu.get(i, k).abs();
                if v > best_abs {
                    best = i;
                    best_abs = v;
                }
            }
            if best_abs == 0.0 || !best_abs.is_finite() {
                return Err(LinalgError::Singular { pivot: k });
            }
            if best != k {
                swap_rows(lu.data_mut(), n, k, best);
                perm.swap(k, best);
            }

            let data = lu.data_mut();
            let (head, tail) = data.split_at_mut((k + 1) * n);
            let pivot_row = &head[k * n..(k + 1) * n];
            let pivot = pivot_row[k];
            for row in tail.chunks_mut(n) {
                let m = row[k] / pivot;
                row[k] = m;
                if m != 0.0 {
                    for j in (k + 1)..n {
                        row[j] -= m * pivot_row[j];
                    }
                }
            }
        }
        Ok(Lu { lu, perm })
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Solves for a single right-hand side.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `b.len() != dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "lu solve",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        // Apply permutation, forward-substitute L, back-substitute U.
        let mut x: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
        let lu = &self.lu;
        for i in 1..n {
            let mut sum = x[i];
            let row = lu.row(i);
            for (j, xj) in x.iter().enumerate().take(i) {
                sum -= row[j] * xj;
            }
            x[i] = sum;
        }
        for i in (0..n).rev() {
            let mut sum = x[i];
            let row = lu.row(i);
            for (j, xj) in x.iter().enumerate().take(n).skip(i + 1) {
                sum -= row[j] * xj;
            }
            x[i] = sum / row[i];
        }
        Ok(x)
    }
}

fn swap_rows(data: &mut [f64], n: usize, a: usize, b: usize) {
    if a == b {
        return;
    }
    let (lo, hi) = (a.min(b), a.max(b));
    let (head, tail) = data.split_at_mut(hi * n);
    head[lo * n..(lo + 1) * n].swap_with_slice(&mut tail[..n]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rejects_non_square() {
        assert!(Lu::factor(&Mat::zeros(2, 3)).is_err());
    }

    #[test]
    fn detects_singularity() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert!(matches!(Lu::factor(&a), Err(LinalgError::Singular { .. })));
        let z = Mat::zeros(3, 3);
        assert!(Lu::factor(&z).is_err());
    }

    #[test]
    fn solves_with_pivoting_required() {
        // Leading zero forces a row swap.
        let a = Mat::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let x = Lu::factor(&a).unwrap().solve(&[3.0, 4.0]).unwrap();
        assert_eq!(x, vec![4.0, 3.0]);
    }

    #[test]
    fn solve_validates_rhs_length() {
        let lu = Lu::factor(&Mat::eye(3)).unwrap();
        assert!(lu.solve(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn large_system_stays_accurate() {
        // 200x200 diagonally dominant system.
        let n = 200;
        let a = Mat::from_fn(n, n, |i, j| {
            if i == j {
                n as f64
            } else {
                ((i * 31 + j * 17) % 13) as f64 / 13.0
            }
        });
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 / n as f64) - 0.5).collect();
        let b = a.matvec(&x_true).unwrap();
        let x = Lu::factor(&a).unwrap().solve(&b).unwrap();
        for (xi, ti) in x.iter().zip(x_true.iter()) {
            assert!((xi - ti).abs() < 1e-9, "{xi} vs {ti}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn solve_recovers_known_solution(
            n in 1usize..8,
            seed in proptest::collection::vec(-3.0f64..3.0, 64 + 8),
        ) {
            // Diagonally dominant => nonsingular and well conditioned.
            let a = Mat::from_fn(n, n, |i, j| {
                let v = seed[i * 8 + j];
                if i == j { v.abs() + (n as f64) * 4.0 } else { v }
            });
            let x_true: Vec<f64> = (0..n).map(|i| seed[64 + i]).collect();
            let b = a.matvec(&x_true).unwrap();
            let x = a.solve(&b).unwrap();
            for (xi, ti) in x.iter().zip(x_true.iter()) {
                prop_assert!((xi - ti).abs() < 1e-8);
            }
        }

        #[test]
        fn permutation_invariance(perm_seed in 0u64..1000) {
            // Shuffling rows of A and b identically must not change x.
            let a = Mat::from_rows(&[
                &[5.0, 1.0, 0.5],
                &[0.25, 6.0, 1.0],
                &[1.0, 0.5, 7.0],
            ]).unwrap();
            let b = vec![1.0, 2.0, 3.0];
            let x0 = a.solve(&b).unwrap();
            let k = (perm_seed % 3) as usize;
            let order = [[0usize, 1, 2], [1, 2, 0], [2, 0, 1]][k];
            let ap = Mat::from_rows(&[a.row(order[0]), a.row(order[1]), a.row(order[2])]).unwrap();
            let bp: Vec<f64> = order.iter().map(|&i| b[i]).collect();
            let x1 = ap.solve(&bp).unwrap();
            for (u, v) in x0.iter().zip(x1.iter()) {
                prop_assert!((u - v).abs() < 1e-10);
            }
        }
    }
}
