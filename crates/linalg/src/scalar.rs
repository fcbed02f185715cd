//! Scalar reference factorization: the original column-sweep
//! Householder QR, kept in-tree as the bit-identity reference the
//! row-major [`Qr::factor`] is proptested against (the
//! `milr_tensor::scalar` pattern) and as `kernel_bench`'s baseline.
//!
//! The factor it returns is an ordinary [`Qr`], so its solves differ
//! from those of [`Qr::factor`] only in the factorization. See
//! DESIGN.md §18.

use crate::{LinalgError, Mat, Qr, Result};

/// Reference Householder QR of an `m × n` matrix, `m ≥ n`: each
/// reflector's trailing update walks the row-major matrix one column
/// at a time.
///
/// # Errors
///
/// As [`Qr::factor`].
pub fn qr_factor(a: &Mat) -> Result<Qr> {
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
    for k in 0..n {
        // Build the Householder reflector annihilating column k below
        // the diagonal.
        let mut norm2 = 0.0f64;
        for i in k..m {
            let v = qr.get(i, k);
            norm2 += v * v;
        }
        let norm = norm2.sqrt();
        if norm <= rank_tol || !norm.is_finite() {
            return Err(LinalgError::Singular { pivot: k });
        }
        let akk = qr.get(k, k);
        let alpha = if akk >= 0.0 { -norm } else { norm };
        let v0 = akk - alpha;
        // H = I + beta·v·vᵀ with beta = 1/(α·v0) (= −2/vᵀv, negative).
        let beta = 1.0 / (alpha * v0);
        // Store v (with v[k] = v0) in the lower part, R diag in place.
        qr.set(k, k, alpha);
        let mut v = vec![0.0f64; m - k];
        v[0] = v0;
        for i in (k + 1)..m {
            v[i - k] = qr.get(i, k);
        }
        // Apply reflector to the trailing columns.
        for j in (k + 1)..n {
            let mut dot = 0.0f64;
            for i in k..m {
                let aij = qr.get(i, j);
                dot += v[i - k] * aij;
            }
            let scale = beta * dot;
            for i in k..m {
                let aij = qr.get(i, j);
                qr.set(i, j, aij + scale * v[i - k]);
            }
        }
        // Persist v below the diagonal.
        for i in (k + 1)..m {
            qr.set(i, k, v[i - k]);
        }
        betas.push((beta, v0));
        if !qr.get(k, k).is_finite() || qr.get(k, k).abs() <= rank_tol {
            return Err(LinalgError::Singular { pivot: k });
        }
    }
    Ok(Qr { qr, betas })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Bit equality, with any NaN equal to any NaN: Rust leaves the sign
    /// and payload of an arithmetic NaN unspecified.
    fn same(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    fn same_all(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(&x, &y)| same(x, y))
    }

    fn assert_same_solution(what: &str, fast: Result<Vec<f64>>, slow: Result<Vec<f64>>) {
        match (fast, slow) {
            (Ok(x), Ok(y)) => assert!(same_all(&x, &y), "{what}: solutions differ"),
            (Err(e), Err(f)) => assert_eq!(e, f, "{what}: errors differ"),
            (x, y) => panic!("{what}: {x:?} vs reference {y:?}"),
        }
    }

    /// Asserts the row-major factor, its solve, `lstsq` and (on `aᵀ`)
    /// `min_norm_solve` equal the same through the reference factor,
    /// bit for bit, errors included. Returns whether the factorization succeeded.
    fn check(a: &Mat, b: &[f64]) -> bool {
        let shape = (a.rows(), a.cols());
        let ok = match (Qr::factor(a), qr_factor(a)) {
            (Ok(fast), Ok(slow)) => {
                assert!(
                    same_all(fast.qr.data(), slow.qr.data()),
                    "{shape:?}: factors differ"
                );
                assert!(
                    fast.betas
                        .iter()
                        .zip(&slow.betas)
                        .all(|(x, y)| same(x.0, y.0) && same(x.1, y.1))
                        && fast.betas.len() == slow.betas.len(),
                    "{shape:?}: reflector scales differ"
                );
                assert_same_solution("solve", fast.solve(b), slow.solve(b));
                true
            }
            (Err(e), Err(f)) => {
                assert_eq!(e, f, "{shape:?}: errors differ");
                false
            }
            (x, y) => panic!("{shape:?}: {x:?} vs reference {y:?}"),
        };
        assert_same_solution(
            "lstsq",
            crate::lstsq(a, b),
            qr_factor(a).and_then(|qr| qr.solve(b)),
        );
        // `min_norm_solve` factors the transpose of its wide argument.
        let rhs = &b[..a.cols()];
        assert_same_solution(
            "min_norm_solve",
            crate::min_norm_solve(&a.transpose(), rhs),
            qr_factor(a).and_then(|qr| qr.min_norm_apply(rhs)),
        );
        ok
    }

    /// A tall system `(A, b)`, `1×1 ≤ A ≤ 64×48`, drawn with the values
    /// that break careless rewrites over-represented: f32-rounded
    /// entries (what MILR factors), ±0, f32 and f64 subnormals, rows
    /// scaled by 2^±20 (each column sum then mixes magnitudes, so any
    /// reordering of its terms rounds differently), a whole matrix
    /// scaled by 1e-30, NaN and ±inf entries, and rank-deficient
    /// matrices: a zero column, a multiple of an earlier column, or
    /// columns scaled by 2^±40 (beyond the rank tolerance, so the
    /// factorization stops at a pivot both sweeps must agree on).
    #[derive(Debug, Clone, Copy)]
    struct TallSystem;

    impl Strategy for TallSystem {
        type Value = (Mat, Vec<f64>);

        fn sample(&self, rng: &mut TestRng) -> (Mat, Vec<f64>) {
            let m = 1 + rng.below(64) as usize;
            let n = 1 + rng.below(m.min(48) as u64) as usize;
            let flavour = rng.below(8);
            let mut a = Mat::from_fn(m, n, |_, _| {
                let x = rng.unit() * 20.0 - 10.0;
                match flavour {
                    0 => x,
                    1 => match rng.below(8) {
                        0 => 0.0,
                        1 => -0.0,
                        2 => f64::from_bits(1 + rng.below(1 << 52)),
                        3 => f32::from_bits(1 + rng.below(0x007F_FFFF) as u32) as f64,
                        _ => x as f32 as f64,
                    },
                    2 => x * 1e-30,
                    3 => match rng.below(40) {
                        0 => f64::NAN,
                        1 => f64::INFINITY,
                        2 => f64::NEG_INFINITY,
                        _ => x,
                    },
                    _ => x as f32 as f64,
                }
            });
            let line_scaling = rng.below(6);
            let mut scale_lines = |by_row: bool, exp: i32| {
                let (lines, len) = if by_row { (m, n) } else { (n, m) };
                for line in 0..lines {
                    let scale = match rng.below(4) {
                        0 => 2f64.powi(exp),
                        1 => 2f64.powi(-exp),
                        _ => continue,
                    };
                    for t in 0..len {
                        let (i, j) = if by_row { (line, t) } else { (t, line) };
                        let v = a.get(i, j) * scale;
                        a.set(i, j, v);
                    }
                }
            };
            match line_scaling {
                0 => scale_lines(false, 40),
                1 | 2 => scale_lines(true, 20),
                _ => {}
            }
            if flavour == 4 {
                // Column j becomes zero or a multiple of an earlier one.
                let j = rng.below(n as u64) as usize;
                let (src, scale) = if j == 0 || rng.below(3) == 0 {
                    (j, 0.0)
                } else {
                    (rng.below(j as u64) as usize, rng.unit() * 4.0 - 2.0)
                };
                for i in 0..m {
                    let v = a.get(i, src) * scale;
                    a.set(i, j, v);
                }
            }
            let b = (0..m).map(|_| rng.unit() * 2.0 - 1.0).collect();
            (a, b)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn row_major_qr_matches_reference_bits(system in TallSystem) {
            check(&system.0, &system.1);
        }
    }

    /// Deterministic `f32`-valued draw in `[-scale, scale)`.
    fn lcg_f32(state: &mut u64, scale: f32) -> f64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*state >> 40) as f32 / (1u32 << 24) as f32 * 2.0 - 1.0) as f64 * scale as f64
    }

    #[test]
    fn dense_inversion_shape_matches_reference_bits() {
        // The 384×384 `W_augᵀ` a CIFAR-small heal factors: 32 trained
        // weight columns plus 352 PRNG dummy columns, transposed.
        let mut state = 7;
        let a = Mat::from_fn(384, 384, |i, _| {
            lcg_f32(&mut state, if i < 32 { 0.1 } else { 1.0 })
        });
        let b: Vec<f64> = (0..384).map(|_| lcg_f32(&mut state, 1.0)).collect();
        assert!(check(&a, &b), "the 384×384 system factors");
    }

    #[test]
    fn singular_pivots_match_reference() {
        let zero_col = Mat::from_fn(5, 3, |i, j| if j == 1 { 0.0 } else { (i + j) as f64 });
        let base = |i: usize, j: usize| ((i * 7 + j * 3) % 5) as f64 + (i * j) as f64;
        let multiple = Mat::from_fn(
            6,
            4,
            |i, j| if j == 2 { 3.0 * base(i, 0) } else { base(i, j) },
        );
        let nan = Mat::from_fn(4, 3, |i, j| {
            if (i, j) == (2, 2) {
                f64::NAN
            } else {
                (i * 3 + j + 1) as f64
            }
        });
        let inf = Mat::from_fn(4, 3, |i, j| {
            if (i, j) == (0, 1) {
                f64::INFINITY
            } else {
                1.0 + (i ^ j) as f64
            }
        });
        for (a, pivot) in [(zero_col, 1), (multiple, 2), (nan, 2), (inf, 0)] {
            let b = vec![1.0; a.rows()];
            assert!(!check(&a, &b));
            assert_eq!(Qr::factor(&a).unwrap_err(), LinalgError::Singular { pivot });
        }
    }
}
