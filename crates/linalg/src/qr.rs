use crate::{LinalgError, Mat, Result};

/// Householder QR factorization of an `m × n` matrix with `m ≥ n`.
///
/// Used by MILR wherever a recovery system is over-determined — e.g. a
/// convolution layer whose `im2col` matrix has more output locations than
/// filter coefficients (`G² > F²Z`): the least-squares solution then
/// coincides with the exact solution when the data is consistent, and
/// degrades gracefully when upstream recovery introduced noise.
#[derive(Debug, Clone)]
pub struct Qr {
    /// Householder vectors below the diagonal, R on and above it (so
    /// each vector's leading element `v0` is kept in `betas`).
    pub(crate) qr: Mat,
    /// `(beta, v0)` of each reflector `H = I + beta·v·vᵀ`.
    pub(crate) betas: Vec<(f64, f64)>,
}

/// Rows per sweep of the dot-product buffer.
const DOT_ROWS: usize = 4;

/// `dots[j] += v[r] * rows[r][j]` for `r = 0..R` in order: `R` rows of
/// one reflector's dot pass per sweep of `dots`, each column's sum still
/// taken one row at a time.
#[inline(always)]
fn accumulate<const R: usize>(dots: &mut [f64], rows: [&[f64]; R], v: [f64; R]) {
    let rows = rows.map(|row| &row[..dots.len()]);
    for (j, d) in dots.iter_mut().enumerate() {
        let mut acc = *d;
        for r in 0..R {
            acc += v[r] * rows[r][j];
        }
        *d = acc;
    }
}

impl Qr {
    /// Factors an `m × n` matrix, `m ≥ n`.
    ///
    /// Each reflector's trailing update sweeps the row-major matrix row
    /// by row: first `vᵀ·A` into one buffer of per-column dot products
    /// (`DOT_ROWS` rows per sweep of the buffer), then
    /// `A += v·(beta·vᵀA)` one row at a time. Every column still sums
    /// its terms in ascending row order from `+0`, multiply then add,
    /// so the factor is bit-identical to the column sweep kept in
    /// [`crate::scalar::qr_factor`] (DESIGN.md §18).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Underdetermined`] if `m < n` and
    /// [`LinalgError::Singular`] if a diagonal of `R` collapses to zero
    /// (rank-deficient matrix).
    pub fn factor(a: &Mat) -> Result<Self> {
        let (m, n) = (a.rows(), a.cols());
        if m < n {
            return Err(LinalgError::Underdetermined { rows: m, cols: n });
        }
        let mut qr = a.clone();
        let mut betas = Vec::with_capacity(n);
        // Rank-deficiency threshold relative to the matrix magnitude:
        // a residual column whose norm falls below this is numerically
        // zero after the preceding reflections.
        let rank_tol = a.max_abs() * 1e-12 * (m as f64).max(1.0);
        let data = qr.data_mut();
        let mut dots = vec![0.0f64; n];
        for k in 0..n {
            // Build the Householder reflector annihilating column k below
            // the diagonal.
            let mut norm2 = 0.0f64;
            for i in k..m {
                let v = data[i * n + k];
                norm2 += v * v;
            }
            let norm = norm2.sqrt();
            if norm <= rank_tol || !norm.is_finite() {
                return Err(LinalgError::Singular { pivot: k });
            }
            let akk = data[k * n + k];
            let alpha = if akk >= 0.0 { -norm } else { norm };
            let v0 = akk - alpha;
            // H = I + beta·v·vᵀ with beta = 1/(α·v0) (= −2/vᵀv, negative).
            let beta = 1.0 / (alpha * v0);
            // v = (v0, A[k+1.., k]): column k below the diagonal already
            // holds it and the update never writes that column.
            let rows = &mut data[k * n..];
            let scales = &mut dots[k + 1..];
            scales.fill(0.0);
            let v = |i: usize, row: &[f64]| if i == 0 { v0 } else { row[k] };
            let mut blocks = rows.chunks_exact(DOT_ROWS * n);
            for (b, block) in blocks.by_ref().enumerate() {
                let r: [&[f64]; DOT_ROWS] = std::array::from_fn(|t| &block[t * n..][..n]);
                let vs = std::array::from_fn(|t| v(b * DOT_ROWS + t, r[t]));
                accumulate(scales, r.map(|row| &row[k + 1..]), vs);
            }
            let done = (m - k) / DOT_ROWS * DOT_ROWS;
            for (i, row) in blocks.remainder().chunks_exact(n).enumerate() {
                accumulate(scales, [&row[k + 1..]], [v(done + i, row)]);
            }
            for d in scales.iter_mut() {
                *d *= beta;
            }
            for (i, row) in rows.chunks_exact_mut(n).enumerate() {
                let vi = v(i, row);
                for (aij, &scale) in row[k + 1..].iter_mut().zip(scales.iter()) {
                    *aij += scale * vi;
                }
            }
            // R's diagonal in place; v0 lives beside beta.
            rows[k] = alpha;
            betas.push((beta, v0));
        }
        Ok(Qr { qr, betas })
    }

    fn beta(&self, k: usize) -> f64 {
        self.betas[k].0
    }

    fn v0(&self, k: usize) -> f64 {
        self.betas[k].1
    }

    /// Number of rows of the factored matrix.
    pub fn rows(&self) -> usize {
        self.qr.rows()
    }

    /// Number of columns of the factored matrix.
    pub fn cols(&self) -> usize {
        self.qr.cols()
    }

    /// Applies `Qᵀ` to a vector of length `m` in place.
    fn apply_qt(&self, x: &mut [f64]) {
        let (m, n) = (self.qr.rows(), self.qr.cols());
        for k in 0..n {
            let beta = self.beta(k);
            let v0 = self.v0(k);
            let mut dot = v0 * x[k];
            for i in (k + 1)..m {
                dot += self.qr.get(i, k) * x[i];
            }
            let scale = beta * dot;
            x[k] += scale * v0;
            for i in (k + 1)..m {
                x[i] += scale * self.qr.get(i, k);
            }
        }
    }

    /// Applies `Q` to a vector of length `m` in place.
    fn apply_q(&self, x: &mut [f64]) {
        let (m, n) = (self.qr.rows(), self.qr.cols());
        for k in (0..n).rev() {
            let beta = self.beta(k);
            let v0 = self.v0(k);
            let mut dot = v0 * x[k];
            for i in (k + 1)..m {
                dot += self.qr.get(i, k) * x[i];
            }
            let scale = beta * dot;
            x[k] += scale * v0;
            for i in (k + 1)..m {
                x[i] += scale * self.qr.get(i, k);
            }
        }
    }

    /// Least-squares solution of `A·x ≈ b` (minimizes `‖Ax − b‖₂`).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `b.len() != rows()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let (m, n) = (self.qr.rows(), self.qr.cols());
        if b.len() != m {
            return Err(LinalgError::ShapeMismatch {
                op: "qr solve",
                lhs: (m, n),
                rhs: (b.len(), 1),
            });
        }
        let mut y = b.to_vec();
        self.apply_qt(&mut y);
        // Back-substitute R x = y[..n].
        let mut x = vec![0.0f64; n];
        for i in (0..n).rev() {
            let mut sum = y[i];
            for j in (i + 1)..n {
                sum -= self.qr.get(i, j) * x[j];
            }
            x[i] = sum / self.qr.get(i, i);
        }
        Ok(x)
    }

    /// Solves `Rᵀ·y = b` by forward substitution and returns `Q·[y; 0]`
    /// of length `rows()` — the core of the minimum-norm solver.
    pub(crate) fn min_norm_apply(&self, b: &[f64]) -> Result<Vec<f64>> {
        let (m, n) = (self.qr.rows(), self.qr.cols());
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "qr min_norm",
                lhs: (m, n),
                rhs: (b.len(), 1),
            });
        }
        let mut y = vec![0.0f64; m];
        for i in 0..n {
            let mut sum = b[i];
            for j in 0..i {
                sum -= self.qr.get(j, i) * y[j];
            }
            y[i] = sum / self.qr.get(i, i);
        }
        self.apply_q(&mut y);
        Ok(y)
    }
}

/// Least-squares solution of `A·x ≈ b` for `A` with `rows ≥ cols`.
///
/// # Errors
///
/// Propagates factorization errors (under-determined, singular) and shape
/// mismatches.
///
/// ```
/// use milr_linalg::{lstsq, Mat};
///
/// // Overdetermined consistent system: x = [1, 2].
/// let a = Mat::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]])?;
/// let x = lstsq(&a, &[1.0, 2.0, 3.0])?;
/// assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 2.0).abs() < 1e-12);
/// # Ok::<(), milr_linalg::LinalgError>(())
/// ```
pub fn lstsq(a: &Mat, b: &[f64]) -> Result<Vec<f64>> {
    Qr::factor(a)?.solve(b)
}

/// Minimum-norm solution of the under-determined system `A·x = b`
/// (`rows < cols`), via QR of `Aᵀ`.
///
/// This is the paper's fallback for whole-layer corruption of partially
/// recoverable convolution layers (§V-B): when even the CRC-reduced
/// unknown set exceeds the equation count, MILR "attempts to find a
/// least-square solution … as close as possible to the actual solution".
///
/// # Errors
///
/// Returns [`LinalgError::Singular`] for rank-deficient `A` and shape
/// errors for mismatched `b`.
pub fn min_norm_solve(a: &Mat, b: &[f64]) -> Result<Vec<f64>> {
    let at = a.transpose();
    let qr = Qr::factor(&at)?;
    qr.min_norm_apply(b)
}

/// Tikhonov-regularized least squares: solves
/// `(AᵀA + λ·diag_scale·I)·x = Aᵀb`.
///
/// Unlike QR/min-norm, this never fails on rank-deficient systems — the
/// regularizer makes the normal equations strictly positive definite.
/// MILR uses it as the last-resort solver for recovery systems that are
/// numerically rank-deficient (e.g. a convolution whose golden input
/// lives in a low-dimensional subspace because it was produced by an
/// upstream convolution): the solution reproduces the layer's golden
/// outputs on the recovery flow even when the golden weights themselves
/// are not identifiable.
///
/// # Errors
///
/// Returns [`LinalgError::ShapeMismatch`] when `b.len() != a.rows()`;
/// other failures cannot occur for `lambda > 0`.
pub fn ridge_solve(a: &Mat, b: &[f64], lambda: f64) -> Result<Vec<f64>> {
    if b.len() != a.rows() {
        return Err(LinalgError::ShapeMismatch {
            op: "ridge",
            lhs: (a.rows(), a.cols()),
            rhs: (b.len(), 1),
        });
    }
    let n = a.cols();
    let at = a.transpose();
    let mut ata = at.matmul(a)?;
    // Scale the regularizer to the matrix magnitude so `lambda` is a
    // relative knob.
    let scale = ata.max_abs().max(1e-300);
    let reg = lambda.max(f64::MIN_POSITIVE) * scale;
    for i in 0..n {
        let v = ata.get(i, i) + reg;
        ata.set(i, i, v);
    }
    let atb = at.matvec(b)?;
    ata.solve(&atb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn qr_rejects_underdetermined() {
        assert!(matches!(
            Qr::factor(&Mat::zeros(2, 3)),
            Err(LinalgError::Underdetermined { .. })
        ));
    }

    #[test]
    fn qr_detects_rank_deficiency() {
        let a = Mat::from_rows(&[&[1.0, 1.0], &[2.0, 2.0], &[3.0, 3.0]]).unwrap();
        assert!(Qr::factor(&a).is_err());
    }

    #[test]
    fn square_solve_matches_lu() {
        let a = Mat::from_rows(&[&[3.0, 1.0], &[1.0, 2.0]]).unwrap();
        let b = [9.0, 8.0];
        let x_qr = lstsq(&a, &b).unwrap();
        let x_lu = a.solve(&b).unwrap();
        for (q, l) in x_qr.iter().zip(x_lu.iter()) {
            assert!((q - l).abs() < 1e-12);
        }
    }

    #[test]
    fn overdetermined_consistent_system_is_exact() {
        // 4 equations, 2 unknowns, consistent.
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0], &[7.0, 9.0]]).unwrap();
        let x_true = [2.0, -1.0];
        let b = a.matvec(&x_true).unwrap();
        let x = lstsq(&a, &b).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] + 1.0).abs() < 1e-12);
    }

    #[test]
    fn least_squares_minimizes_residual() {
        // Classic regression: fit y = c0 + c1 t to noisy points; compare
        // against the analytically known normal-equation solution.
        let t = [0.0, 1.0, 2.0, 3.0];
        let y = [1.0, 2.1, 2.9, 4.2];
        let a = Mat::from_fn(4, 2, |i, j| if j == 0 { 1.0 } else { t[i] });
        let x = lstsq(&a, &y).unwrap();
        // Normal equations solved by hand: AᵀA = [[4,6],[6,14]], Aᵀy = [10.2, 20.5].
        let det = 4.0 * 14.0 - 36.0;
        let c0 = (14.0 * 10.2 - 6.0 * 20.5) / det;
        let c1 = (4.0 * 20.5 - 6.0 * 10.2) / det;
        assert!((x[0] - c0).abs() < 1e-10, "{} vs {c0}", x[0]);
        assert!((x[1] - c1).abs() < 1e-10, "{} vs {c1}", x[1]);
    }

    #[test]
    fn min_norm_solves_underdetermined_consistently() {
        // 1 equation, 3 unknowns: x + y + z = 3; min-norm => (1,1,1).
        let a = Mat::from_rows(&[&[1.0, 1.0, 1.0]]).unwrap();
        let x = min_norm_solve(&a, &[3.0]).unwrap();
        for v in &x {
            assert!((v - 1.0).abs() < 1e-12, "{x:?}");
        }
    }

    #[test]
    fn min_norm_satisfies_equations() {
        let a = Mat::from_rows(&[&[1.0, 2.0, 0.0, 1.0], &[0.0, 1.0, 3.0, -1.0]]).unwrap();
        let b = [4.0, 2.0];
        let x = min_norm_solve(&a, &b).unwrap();
        let back = a.matvec(&x).unwrap();
        for (u, v) in back.iter().zip(b.iter()) {
            assert!((u - v).abs() < 1e-10);
        }
    }

    #[test]
    fn min_norm_is_smallest_solution() {
        // Any particular solution plus a null-space component must be
        // longer than the min-norm solution.
        let a = Mat::from_rows(&[&[1.0, 1.0]]).unwrap();
        let x = min_norm_solve(&a, &[2.0]).unwrap();
        let norm_min: f64 = x.iter().map(|v| v * v).sum();
        // (2, 0) also solves it but is longer.
        assert!(norm_min < 4.0 - 1e-9);
    }

    #[test]
    fn solve_validates_rhs() {
        let qr = Qr::factor(&Mat::eye(3)).unwrap();
        assert!(qr.solve(&[1.0]).is_err());
        let a = Mat::from_rows(&[&[1.0, 0.0, 0.0]]).unwrap();
        assert!(min_norm_solve(&a, &[1.0, 2.0]).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn qr_solve_recovers_truth_for_tall_systems(
            m in 3usize..9,
            n in 1usize..4,
            seed in proptest::collection::vec(-2.0f64..2.0, 9 * 4 + 4),
        ) {
            prop_assume!(m >= n);
            // Well-conditioned by adding identity-like structure.
            let a = Mat::from_fn(m, n, |i, j| {
                seed[i * 4 + j] + if i == j { 5.0 } else { 0.0 }
            });
            let x_true: Vec<f64> = (0..n).map(|i| seed[36 + i]).collect();
            let b = a.matvec(&x_true).unwrap();
            let x = lstsq(&a, &b).unwrap();
            for (xi, ti) in x.iter().zip(x_true.iter()) {
                prop_assert!((xi - ti).abs() < 1e-8, "{xi} vs {ti}");
            }
        }

        #[test]
        fn min_norm_residual_is_zero_for_full_rank(
            n in 3usize..7,
            m in 1usize..3,
            seed in proptest::collection::vec(-2.0f64..2.0, 7 * 3 + 3),
        ) {
            prop_assume!(m < n);
            let a = Mat::from_fn(m, n, |i, j| {
                seed[i * 7 + j] + if i == j { 4.0 } else { 0.0 }
            });
            let b: Vec<f64> = (0..m).map(|i| seed[21 + i]).collect();
            let x = min_norm_solve(&a, &b).unwrap();
            let back = a.matvec(&x).unwrap();
            for (u, v) in back.iter().zip(b.iter()) {
                prop_assert!((u - v).abs() < 1e-8);
            }
        }
    }
}

#[cfg(test)]
mod ridge_tests {
    use super::*;

    #[test]
    fn ridge_matches_exact_solve_when_well_conditioned() {
        let a = Mat::from_rows(&[&[4.0, 1.0], &[1.0, 3.0], &[0.5, 0.5]]).unwrap();
        let x_true = [2.0, -1.0];
        let b = a.matvec(&x_true).unwrap();
        let x = ridge_solve(&a, &b, 1e-12).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-5, "{x:?}");
        assert!((x[1] + 1.0).abs() < 1e-5, "{x:?}");
    }

    #[test]
    fn ridge_survives_rank_deficiency() {
        // Two identical columns: QR fails, ridge returns the symmetric
        // split that reproduces b.
        let a = Mat::from_rows(&[&[1.0, 1.0], &[2.0, 2.0], &[3.0, 3.0]]).unwrap();
        assert!(Qr::factor(&a).is_err());
        let b = [2.0, 4.0, 6.0];
        let x = ridge_solve(&a, &b, 1e-10).unwrap();
        let back = a.matvec(&x).unwrap();
        for (u, v) in back.iter().zip(b.iter()) {
            assert!((u - v).abs() < 1e-4, "{back:?}");
        }
        assert!((x[0] - x[1]).abs() < 1e-6, "symmetric split: {x:?}");
    }

    #[test]
    fn ridge_validates_shapes() {
        let a = Mat::zeros(3, 2);
        assert!(ridge_solve(&a, &[1.0], 1e-9).is_err());
    }
}
