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
/// deficiency. Whether the result is exact is for the caller's
/// certificate to tell.
fn robust_solve(a: &Mat, b: &[f64]) -> Result<Vec<f64>> {
    if a.rows() >= a.cols() {
        if let Ok(qr) = Qr::factor(a) {
            if let Ok(x) = qr.solve(b) {
                return Ok(x);
            }
        }
    } else if let Ok(x) = min_norm_solve(a, b) {
        return Ok(x);
    }
    Ok(ridge_solve(a, b, RIDGE_LAMBDA)?)
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

/// CRC-first recovery of a convolution layer (§IV-B-b/c): locate,
/// correct over GF(2), least-squares what is left, certify.
///
/// The stored 2-D CRC grids flag the changed weights. A flagged cell
/// whose row chunk holds no other unresolved cell takes the one value
/// that chunk's code allows (`row_solution`, a 32×32 GF(2) solve), and
/// likewise for its column chunk; a cell alone on both axes must get
/// the same bits from both codes. Several flagged cells can share one
/// chunk (a garbled cipher block flags a whole row chunk), so this
/// peels to a fixpoint: each pinned cell frees its chunk-mates for the
/// next round.
///
/// The peel needs no golden data, so `golden` — the layer's golden
/// input and output, propagated from the checkpoints — runs only when
/// cells remain (e.g. a 2×2 square of one slice, or whole-layer
/// corruption). Those cells alone become the unknowns of one
/// least-squares system per filter, every other weight known; a system
/// with more unknowns than equations takes the minimum-norm solution.
///
/// The outcome is the certificate: `Full`/`Partial` only when every
/// row and column code of the healed bank matches, `Approx` otherwise.
pub(crate) fn solve_conv_partial(
    golden: impl FnOnce() -> Result<(Tensor, Tensor)>,
    current: &Tensor,
    spec: &ConvSpec,
    artifacts: &Artifacts,
    config: &MilrConfig,
    index: usize,
) -> Result<(Tensor, RecoveryOutcome)> {
    let dims = current.shape().dims().to_vec();
    let (f, z, ny) = (dims[0], dims[2], dims[3]);
    let grids = artifacts.crc_grids.get(&index).ok_or_else(|| {
        MilrError::CorruptArtifacts(format!("missing CRC grids for layer {index}"))
    })?;
    // Locate: `(slice, z, y)` of every flagged cell, slice `f1·F + f2`.
    // Per filter `y` the flat `(f1, f2, z)` coordinates come out
    // ascending, which the skip-merge below relies on.
    let mut unresolved: Vec<(usize, usize, usize)> = Vec::new();
    for (g, codes) in grids.iter().enumerate() {
        let located = codes.locate_errors(&filter_zy_slice(current, g / f, g % f));
        unresolved.extend(located.into_iter().map(|(zz, k)| (g, zz, k)));
    }
    let flagged = unresolved.len();
    let mut filters = current.clone();
    let group = grids.first().map_or(4, |g| g.config().group());
    while !unresolved.is_empty() {
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
        if next.len() == unresolved.len() {
            break;
        }
        unresolved = next;
    }
    if !unresolved.is_empty() {
        let (x, y) = golden()?;
        let (a, y_mat) = conv_system(&x, &y, spec, &dims)?;
        let rows = a.rows();
        for k in 0..ny {
            let coords: Vec<usize> = (unresolved.iter())
                .filter(|&&(_, _, k2)| k2 == k)
                .map(|&(g, zz, _)| g * z + zz)
                .collect();
            if coords.is_empty() {
                continue;
            }
            // RHS: golden output minus the contribution of known weights.
            let mut rhs = y_mat.col(k);
            #[allow(clippy::needless_range_loop)] // r indexes rhs and `a` rows together
            for r in 0..rows {
                let mut acc = 0.0f64;
                let mut ci = 0usize;
                for (pos, &av) in a.row(r).iter().enumerate() {
                    // Skip the unknowns.
                    if ci < coords.len() && coords[ci] == pos {
                        ci += 1;
                        continue;
                    }
                    acc += av * filters.data()[pos * ny + k] as f64;
                }
                rhs[r] -= acc;
            }
            // Reduced coefficient matrix: only the unknowns' columns.
            let mut sub = Mat::zeros(rows, coords.len());
            for r in 0..rows {
                let arow = a.row(r);
                for (j, &pos) in coords.iter().enumerate() {
                    sub.set(r, j, arow[pos]);
                }
            }
            let solution = robust_solve(&sub, &rhs)?;
            for (j, &pos) in coords.iter().enumerate() {
                filters.data_mut()[pos * ny + k] = config.weight_grid.snap(solution[j] as f32);
            }
        }
    }
    // Certify against the golden CRC fingerprint. A least-squares value
    // rarely lands on the golden bits: a rank-deficient system (whole-
    // layer corruption, or input from an upstream convolution) yields
    // a consistent-but-different bank, which the codes expose.
    let certified = (grids.iter().enumerate())
        .all(|(g, codes)| codes.is_clean(&filter_zy_slice(&filters, g / f, g % f)));
    let outcome = if !certified {
        RecoveryOutcome::Approx {
            unknowns: unresolved.len(),
        }
    } else if flagged == 0 || flagged == filters.numel() {
        RecoveryOutcome::Full
    } else {
        RecoveryOutcome::Partial { solved: flagged }
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
    fn conv_partial_pins_scattered_weights_without_golden_data() {
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
        let golden = m.layers()[0].params().unwrap().clone();
        // Corrupt a handful of weights, each in its own `(Z, Y)` slice:
        // every one is alone in its row and column chunk, so the CRC
        // pins it and the golden input/output is never asked for.
        let mut corrupted = golden.clone();
        for &i in &[3usize, 77, 150, 200] {
            corrupted.data_mut()[i] += 2.5;
        }
        let no_golden = || Err(MilrError::ModelMismatch("golden data requested".into()));
        let (recovered, outcome) =
            solve_conv_partial(no_golden, &corrupted, &spec, &art, &cfg, 0).unwrap();
        assert_eq!(outcome, RecoveryOutcome::Partial { solved: 4 });
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&recovered), bits(&golden));
    }

    #[test]
    fn conv_partial_whole_layer_heal_is_approx() {
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
        let golden_io = || Ok((x.clone(), y.clone()));
        let (recovered, outcome) =
            solve_conv_partial(golden_io, &corrupted, &spec, &art, &cfg, 0).unwrap();
        assert!(matches!(outcome, RecoveryOutcome::Approx { .. }));
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
