//! Parameter solving — MILR's recovery function `R(x, y) = p`
//! (paper §IV).
//!
//! Given the golden input (forward-propagated from the preceding
//! checkpoint) and golden output (inverse-propagated from the succeeding
//! checkpoint) of a faulty layer, these solvers reconstruct its
//! parameters. All arithmetic is `f64`; results are rounded to the `f32`
//! weights they replace.

use crate::artifacts::{dense_dummy_rows, filter_zy_slice, Artifacts};
use crate::plan::SolvingPlan;
use crate::{MilrConfig, MilrError, RecoveryOutcome, Result, WeightGrid};
use milr_linalg::{min_norm_solve, ridge_solve, Mat, Qr};
use milr_tensor::{im2col, ConvSpec, Tensor};

/// Relative Tikhonov strength of the last-resort solver.
const RIDGE_LAMBDA: f64 = 1e-10;

/// Solves `A·x ≈ b` by the sturdiest route available: QR when the
/// system is (numerically) full rank, minimum-norm for wide systems,
/// Tikhonov-regularized normal equations when both report rank
/// deficiency. Returns the solution and whether an approximate
/// (non-identifying) path was taken.
fn robust_solve(a: &Mat, b: &[f64]) -> Result<(Vec<f64>, bool)> {
    if a.rows() >= a.cols() {
        if let Ok(qr) = Qr::factor(a) {
            if let Ok(x) = qr.solve(b) {
                return Ok((x, false));
            }
        }
    } else if let Ok(x) = min_norm_solve(a, b) {
        return Ok((x, true));
    }
    Ok((ridge_solve(a, b, RIDGE_LAMBDA)?, true))
}

/// Recovers a dense layer's weight matrix from golden input/output
/// (§IV-A-b). `x` is `(B, N)`, `y` is `(B, P)`; PRNG dummy rows and
/// their stored outputs complete the system when `B < N`.
// The argument list is the full recovery context (anchors, plan,
// artifacts, geometry); bundling it into a struct would be used once.
#[allow(clippy::too_many_arguments)]
pub(crate) fn solve_dense(
    x: &Tensor,
    y: &Tensor,
    plan: SolvingPlan,
    artifacts: &Artifacts,
    config: &MilrConfig,
    index: usize,
    n: usize,
    p: usize,
) -> Result<(Tensor, RecoveryOutcome)> {
    let SolvingPlan::DenseFull { dummy_rows } = plan else {
        return Err(MilrError::CorruptArtifacts(format!(
            "layer {index} solving plan is not dense"
        )));
    };
    let (x_aug, y_aug) = if dummy_rows >= n {
        // Self-recovery extension: the dummy system alone has N golden
        // equations, so the (possibly propagation-polluted) real rows
        // are left out entirely.
        let dummy_x = dense_dummy_rows(config, index, dummy_rows, n);
        let dummy_y = artifacts.dense_dummy_outputs.get(&index).ok_or_else(|| {
            MilrError::CorruptArtifacts(format!("missing dense dummy outputs {index}"))
        })?;
        (dummy_x, dummy_y.clone())
    } else if dummy_rows > 0 {
        let dummy_x = dense_dummy_rows(config, index, dummy_rows, n);
        let dummy_y = artifacts.dense_dummy_outputs.get(&index).ok_or_else(|| {
            MilrError::CorruptArtifacts(format!("missing dense dummy outputs {index}"))
        })?;
        (
            Tensor::vstack(&[x, &dummy_x])?,
            Tensor::vstack(&[y, dummy_y])?,
        )
    } else {
        (x.clone(), y.clone())
    };
    let m_aug = x_aug.shape().dim(0);
    let a = Mat::from_vec(x_aug.to_f64_vec(), m_aug, n)?;
    let qr = Qr::factor(&a)?;
    // One solve per output column; assembled column-major then
    // transposed into the (N, P) weight layout.
    let mut weights = vec![0.0f32; n * p];
    for col in 0..p {
        let rhs: Vec<f64> = y_aug.data()[col..]
            .iter()
            .step_by(p)
            .map(|&v| v as f64)
            .collect();
        let w = qr.solve(&rhs)?;
        for (row, &v) in w.iter().enumerate() {
            weights[row * p + col] = config.weight_grid.snap(v as f32);
        }
    }
    Ok((Tensor::from_vec(weights, &[n, p])?, RecoveryOutcome::Full))
}

/// Builds the convolution recovery system: coefficient matrix
/// `(B·G², F²Z)` from stacked im2col patches and RHS matrix `(B·G², Y)`
/// from the golden outputs.
fn conv_system(
    x: &Tensor,
    y: &Tensor,
    spec: &ConvSpec,
    filter_dims: &[usize],
) -> Result<(Mat, Mat)> {
    let b = x.shape().dim(0);
    let (h, w, c) = (x.shape().dim(1), x.shape().dim(2), x.shape().dim(3));
    let unknowns = filter_dims[0] * filter_dims[1] * filter_dims[2];
    let ny = filter_dims[3];
    let (gh, gw) = (y.shape().dim(1), y.shape().dim(2));
    let rows = b * gh * gw;
    let mut a = Vec::with_capacity(rows * unknowns);
    let per_img = h * w * c;
    for img in 0..b {
        let image = Tensor::from_vec(
            x.data()[img * per_img..(img + 1) * per_img].to_vec(),
            &[h, w, c],
        )?;
        let cols = im2col(&image, spec)?;
        a.extend(cols.data().iter().map(|&v| v as f64));
    }
    let y_mat = Mat::from_vec(y.to_f64_vec(), rows, ny)?;
    Ok((Mat::from_vec(a, rows, unknowns)?, y_mat))
}

/// CRC-guided partial recovery of a convolution layer (§IV-B-b/c).
///
/// The stored 2-D CRC grids pinpoint which weights changed; only those
/// become unknowns, shrinking each filter's system to (typically) far
/// fewer than `B·G²` equations. When a filter's flagged set still
/// exceeds the equation count — whole-layer corruption — the solver
/// falls back to the minimum-norm least-squares solution.
pub(crate) fn solve_conv_partial(
    x: &Tensor,
    y: &Tensor,
    current: &Tensor,
    spec: &ConvSpec,
    artifacts: &Artifacts,
    config: &MilrConfig,
    index: usize,
) -> Result<(Tensor, RecoveryOutcome)> {
    let grid = config.weight_grid;
    let dims = current.shape().dims().to_vec();
    let (f, z, ny) = (dims[0], dims[2], dims[3]);
    let grids = artifacts.crc_grids.get(&index).ok_or_else(|| {
        MilrError::CorruptArtifacts(format!("missing CRC grids for layer {index}"))
    })?;
    // Locate suspect weights with the 2-D CRC. Coordinates are flat
    // (f1,f2,z) indices; the iteration order keeps each filter's list
    // ascending, which the skip-merge below relies on.
    let mut suspects: Vec<Vec<usize>> = vec![Vec::new(); ny];
    for f1 in 0..f {
        for f2 in 0..f {
            let grid = &grids[f1 * f + f2];
            let slice = filter_zy_slice(current, f1, f2);
            for (zz, yy) in grid.locate_errors(&slice) {
                let coord = (f1 * f + f2) * z + zz;
                suspects[yy].push(coord);
            }
        }
    }
    let total_flagged: usize = suspects.iter().map(Vec::len).sum();
    let unknowns = f * f * z;
    if total_flagged == 0 {
        // Detection flagged the layer but every CRC matches: the
        // weights equal the golden fingerprint (up to a CRC collision),
        // so overwriting them could only do harm. Leave them be.
        return Ok((current.clone(), RecoveryOutcome::Full));
    }
    let (a, y_mat) = conv_system(x, y, spec, &dims)?;
    let rows = a.rows();
    let mut filters = current.clone();
    let mut solved = 0usize;
    let mut approximate = false;
    for (k, coords) in suspects.iter().enumerate() {
        if coords.is_empty() {
            continue;
        }
        // RHS: golden output minus the contribution of trusted weights.
        let mut rhs = y_mat.col(k);
        #[allow(clippy::needless_range_loop)] // r indexes rhs and `a` rows together
        for r in 0..rows {
            let mut acc = 0.0f64;
            let arow = a.row(r);
            let mut ci = 0usize;
            for (pos, &av) in arow.iter().enumerate() {
                // Skip flagged coordinates (they are the unknowns).
                if ci < coords.len() && coords[ci] == pos {
                    ci += 1;
                    continue;
                }
                acc += av * filters.data()[pos * ny + k] as f64;
            }
            rhs[r] -= acc;
        }
        // Reduced coefficient matrix: only the flagged columns.
        let mut sub = Mat::zeros(rows, coords.len());
        for r in 0..rows {
            let arow = a.row(r);
            for (j, &pos) in coords.iter().enumerate() {
                sub.set(r, j, arow[pos]);
            }
        }
        let (solution, approx) = robust_solve(&sub, &rhs)?;
        approximate |= approx;
        for (j, &pos) in coords.iter().enumerate() {
            filters.data_mut()[pos * ny + k] = grid.snap(solution[j] as f32);
        }
        solved += coords.len();
    }
    // Pin each re-solved weight to its golden bits with the stored 2-D
    // CRC. A cell whose row chunk holds no other unresolved cell takes
    // the one value that chunk's code allows (`row_solution`, a 32×32
    // GF(2) solve), and likewise for its column chunk; a cell alone on
    // both axes must get the same bits from both codes. No nearby
    // starting value is needed, so least-squares noise of any size,
    // and min-norm filters, are corrected alike.
    //
    // Several flagged cells can share one chunk (a garbled cipher block
    // flags a whole row chunk), so this peels to a fixpoint: each
    // resolved cell frees its chunk-mates for the next round. Cells
    // that never free up keep their least-squares value, and the
    // whole-grid verification below exposes them.
    let mut unresolved: Vec<(usize, usize, usize)> = Vec::new(); // (g, zz, k)
    for (k, coords) in suspects.iter().enumerate() {
        for &pos in coords {
            unresolved.push((pos / z, pos % z, k));
        }
    }
    let group = grids.first().map_or(4, |g| g.config().group());
    loop {
        let mut next = Vec::with_capacity(unresolved.len());
        for (idx, &(g, zz, k)) in unresolved.iter().enumerate() {
            let row_free = !unresolved.iter().enumerate().any(|(j, &(g2, z2, k2))| {
                j != idx && g2 == g && z2 == zz && k2 / group == k / group
            });
            let col_free = !unresolved.iter().enumerate().any(|(j, &(g2, z2, k2))| {
                j != idx && g2 == g && k2 == k && z2 / group == zz / group
            });
            let slice = filter_zy_slice(&filters, g / f, g % f);
            let solution = match (row_free, col_free) {
                (true, true) => {
                    let v = grids[g].row_solution(&slice, zz, k);
                    (grids[g].col_solution(&slice, zz, k).to_bits() == v.to_bits()).then_some(v)
                }
                (true, false) => Some(grids[g].row_solution(&slice, zz, k)),
                (false, true) => Some(grids[g].col_solution(&slice, zz, k)),
                (false, false) => None,
            };
            match solution {
                Some(v) => filters.data_mut()[(g * z + zz) * ny + k] = v,
                None => next.push((g, zz, k)),
            }
        }
        let progressed = next.len() < unresolved.len();
        unresolved = next;
        if unresolved.is_empty() || !progressed {
            break;
        }
    }
    // Verify the healed bank against the golden CRC fingerprint: an
    // exact re-solve reproduces the original bits; a rank-deficient
    // system (e.g. input produced by an upstream convolution) yields a
    // consistent-but-different bank that the grids expose.
    let verified = (0..f * f).all(|g| {
        let slice = filter_zy_slice(&filters, g / f, g % f);
        grids[g].is_clean(&slice)
    });
    let outcome = if approximate {
        // Rank-deficient somewhere: the bank reproduces the golden flow
        // but individual weights are not identifiable (the paper's
        // whole-layer partial-recoverability limit).
        RecoveryOutcome::MinNorm {
            unknowns: total_flagged.min(unknowns * ny),
        }
    } else if verified && solved == unknowns * ny {
        // Every weight re-solved and the CRC fingerprint matches
        // bit-for-bit: certified full recovery.
        RecoveryOutcome::Full
    } else {
        // Exact reduced solve; `verified` is false only when flagged
        // cells share both a row and a column chunk with each other
        // (e.g. a 2×2 square), so no CRC pins them and they keep their
        // least-squares values.
        RecoveryOutcome::Partial { solved }
    };
    Ok((filters, outcome))
}

/// Recovers a bias layer (§IV-E-b): `p = y − x`, deduplicated across the
/// positions that share each bias element. The estimate is taken from
/// the position with the smallest input magnitude, where the `f32`
/// rounding of `x + b` preserved the most bits of `b`.
pub(crate) fn solve_bias(
    x: &Tensor,
    y: &Tensor,
    channels: usize,
    grid: WeightGrid,
) -> Result<(Tensor, RecoveryOutcome)> {
    if x.shape() != y.shape() {
        return Err(MilrError::ModelMismatch(format!(
            "bias recovery shapes differ: {} vs {}",
            x.shape(),
            y.shape()
        )));
    }
    let mut best_mag = vec![f32::INFINITY; channels];
    let mut bias = vec![0.0f32; channels];
    for (i, (&xv, &yv)) in x.data().iter().zip(y.data().iter()).enumerate() {
        let c = i % channels;
        let mag = xv.abs();
        if mag < best_mag[c] {
            best_mag[c] = mag;
            bias[c] = grid.snap(yv - xv);
        }
    }
    Ok((Tensor::from_vec(bias, &[channels])?, RecoveryOutcome::Full))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifacts::{golden_input, Artifacts};
    use crate::plan::ProtectionPlan;
    use crate::semantics::milr_forward;
    use milr_nn::{Layer, Sequential};
    use milr_tensor::{Padding, TensorRng};

    #[test]
    fn dense_recovery_is_exact() {
        let mut rng = TensorRng::new(5);
        let mut m = Sequential::new(vec![8]);
        m.push(Layer::dense_random(8, 5, &mut rng).unwrap())
            .unwrap();
        let cfg = MilrConfig::default();
        let plan = ProtectionPlan::build(&m, &cfg).unwrap();
        let art = Artifacts::build(&m, &plan, &cfg).unwrap();
        let x = golden_input(&m, &cfg);
        let y = milr_forward(&m.layers()[0], &x).unwrap();
        let golden = m.layers()[0].params().unwrap().clone();
        let (recovered, outcome) =
            solve_dense(&x, &y, plan.layers[0].solving.unwrap(), &art, &cfg, 0, 8, 5).unwrap();
        assert_eq!(outcome, RecoveryOutcome::Full);
        assert!(
            recovered.approx_eq(&golden, 1e-5, 1e-6),
            "max diff {:?}",
            recovered.max_abs_diff(&golden)
        );
    }

    #[test]
    fn conv_partial_recovers_flagged_weights() {
        let mut rng = TensorRng::new(7);
        let spec = ConvSpec::new(3, 1, Padding::Valid).unwrap();
        // 8 channels in: F²Z = 72 > G² = 36 -> partial recoverability.
        let mut m = Sequential::new(vec![8, 8, 8]);
        m.push(Layer::conv2d_random(3, 8, 4, spec, &mut rng).unwrap())
            .unwrap();
        let cfg = MilrConfig::default();
        let plan = ProtectionPlan::build(&m, &cfg).unwrap();
        assert_eq!(plan.layers[0].solving, Some(SolvingPlan::ConvPartial));
        let art = Artifacts::build(&m, &plan, &cfg).unwrap();
        let x = golden_input(&m, &cfg);
        let y = milr_forward(&m.layers()[0], &x).unwrap();
        let golden = m.layers()[0].params().unwrap().clone();
        // Corrupt a handful of weights.
        let mut corrupted = golden.clone();
        for &i in &[3usize, 77, 150, 200] {
            corrupted.data_mut()[i] += 2.5;
        }
        let (recovered, outcome) =
            solve_conv_partial(&x, &y, &corrupted, &spec, &art, &cfg, 0).unwrap();
        match outcome {
            RecoveryOutcome::Partial { solved } => assert!(solved >= 4, "solved {solved}"),
            other => panic!("expected partial, got {other:?}"),
        }
        assert!(
            recovered.approx_eq(&golden, 1e-3, 1e-4),
            "max diff {:?}",
            recovered.max_abs_diff(&golden)
        );
    }

    #[test]
    fn conv_partial_whole_layer_falls_back_to_min_norm() {
        let mut rng = TensorRng::new(8);
        let spec = ConvSpec::new(3, 1, Padding::Valid).unwrap();
        let mut m = Sequential::new(vec![6, 6, 8]);
        m.push(Layer::conv2d_random(3, 8, 3, spec, &mut rng).unwrap())
            .unwrap();
        let cfg = MilrConfig::default();
        let plan = ProtectionPlan::build(&m, &cfg).unwrap();
        let art = Artifacts::build(&m, &plan, &cfg).unwrap();
        let x = golden_input(&m, &cfg);
        let y = milr_forward(&m.layers()[0], &x).unwrap();
        let golden = m.layers()[0].params().unwrap().clone();
        // Corrupt everything (whole-layer attack).
        let mut corrupted = golden.clone();
        for v in corrupted.data_mut() {
            *v += 1.0;
        }
        let (recovered, outcome) =
            solve_conv_partial(&x, &y, &corrupted, &spec, &art, &cfg, 0).unwrap();
        assert!(matches!(outcome, RecoveryOutcome::MinNorm { .. }));
        // Min-norm cannot be exact (under-determined) but must
        // reproduce the layer's golden outputs on the golden input.
        let mut healed_layer = m.layers()[0].clone();
        *healed_layer.params_mut().unwrap() = recovered;
        let y_after = milr_forward(&healed_layer, &x).unwrap();
        assert!(
            y_after.approx_eq(&y, 1e-3, 1e-3),
            "outputs diverge: {:?}",
            y_after.max_abs_diff(&y)
        );
    }

    #[test]
    fn bias_recovery_matches() {
        let x = TensorRng::new(9).uniform_tensor(&[2, 3, 4]);
        let bias = Tensor::from_vec(vec![0.25, -0.5, 1.0, 2.0], &[4]).unwrap();
        let layer = Layer::Bias { bias: bias.clone() };
        let y = layer.forward(&x).unwrap();
        let (recovered, outcome) = solve_bias(&x, &y, 4, WeightGrid::F32).unwrap();
        assert_eq!(outcome, RecoveryOutcome::Full);
        assert!(recovered.approx_eq(&bias, 1e-6, 1e-6));
    }

    #[test]
    fn bias_recovery_validates_shapes() {
        let x = Tensor::zeros(&[2, 4]);
        let y = Tensor::zeros(&[2, 5]);
        assert!(solve_bias(&x, &y, 4, WeightGrid::F32).is_err());
    }
}
